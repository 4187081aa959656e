//! Packet detection, symbol timing, and carrier-frequency-offset estimation.
//!
//! These are the "standard techniques" (Schmidl–Cox style autocorrelation and
//! preamble cross-correlation, \[15\] in the paper) that JMB builds on. Every
//! node runs them:
//!
//! * clients detect and synchronise to the lead AP's sync header, estimating
//!   a *separate CFO per AP* during channel measurement (§5.1b);
//! * slave APs use them to time-align to the lead AP's sync header and to
//!   measure `h_lead(t)`.
//!
//! Accuracy matters because CFO estimation error is exactly the quantity
//! whose *time-extrapolation* the paper shows to be hopeless across packets
//! (10 Hz error → 20° in 5.5 ms, §1). JMB only ever extrapolates within one
//! packet.

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

use crate::params::OfdmParams;
use crate::preamble::{ltf_symbol, LTF_LEN, STF_LEN};
use jmb_dsp::complex::rotate_ramp;
use jmb_dsp::Complex64;

/// Samples by which the receiver backs its FFT windows off into the cyclic
/// prefix after timing refinement. The correlation peak centres the
/// channel's energy; backing off gives acausal channel pre-cursors
/// (multipath leading edges, interpolation ringing) room inside the CP
/// instead of leaking inter-symbol interference.
pub const TIMING_BACKOFF: usize = 3;

/// Result of preamble synchronisation.
#[derive(Debug, Clone, Copy)]
pub struct SyncResult {
    /// Sample index where the STF begins.
    pub stf_start: usize,
    /// Estimated carrier frequency offset in Hz (receiver relative to
    /// transmitter).
    pub cfo_hz: f64,
}

/// Detects a packet by STF autocorrelation (lag 16 plateau).
///
/// Returns the approximate STF start index, or `None` if no plateau exceeds
/// `threshold` (0–1; 0.6 is a robust default at operational SNRs).
pub fn detect_packet(samples: &[Complex64], threshold: f64) -> Option<usize> {
    const LAG: usize = 16;
    const WINDOW: usize = 48;
    if samples.len() < WINDOW + LAG + 1 {
        return None;
    }
    // Running sums for correlation and power.
    let mut corr = Complex64::ZERO;
    let mut power = 0.0f64;
    for n in 0..WINDOW {
        corr += samples[n].conj() * samples[n + LAG];
        power += samples[n + LAG].norm_sqr();
    }
    let mut best: Option<(usize, f64)> = None;
    let mut run = 0usize;
    for n in 0..samples.len() - WINDOW - LAG {
        let metric = if power > 1e-18 {
            corr.abs() / power
        } else {
            0.0
        };
        if metric > threshold {
            run += 1;
            // Require a sustained plateau (~half the STF) before declaring.
            if run == STF_LEN / 2 {
                let start = n + 1 - run;
                best = Some((start, metric));
                break;
            }
        } else {
            run = 0;
        }
        // Slide the window.
        corr += samples[n + WINDOW].conj() * samples[n + WINDOW + LAG];
        corr -= samples[n].conj() * samples[n + LAG];
        power += samples[n + WINDOW + LAG].norm_sqr();
        power -= samples[n + LAG].norm_sqr();
    }
    best.map(|(s, _)| s)
}

/// Coarse CFO estimate from the STF region via lag-16 autocorrelation.
///
/// `stf` should be (at least most of) the 160-sample STF. Unambiguous range:
/// ±1/(2·16·Ts) = ±312.5 kHz at 10 MHz — far beyond any crystal tolerance.
pub fn coarse_cfo(params: &OfdmParams, stf: &[Complex64]) -> f64 {
    lagged_cfo(params, stf, 16)
}

/// Fine CFO estimate from the two repeated LTF symbols via lag-64
/// autocorrelation. Range ±1/(2·64·Ts); apply after coarse correction.
pub fn fine_cfo(params: &OfdmParams, ltf: &[Complex64]) -> f64 {
    lagged_cfo(params, ltf, 64)
}

fn lagged_cfo(params: &OfdmParams, region: &[Complex64], lag: usize) -> f64 {
    #[expect(
        clippy::disallowed_macros,
        reason = "internal helper — both call sites pass preamble windows longer than the fixed lag"
    )]
    {
        assert!(region.len() > lag, "region shorter than lag");
    }
    let mut acc = Complex64::ZERO;
    for n in 0..region.len() - lag {
        acc += region[n].conj() * region[n + lag];
    }
    // r[n+lag] = r[n]·e^{j2πΔf·lag·Ts} ⇒ Δf = arg/(2π·lag·Ts).
    acc.arg() / (2.0 * std::f64::consts::PI * lag as f64 * params.sample_period())
}

/// Removes a CFO of `freq_hz` from `samples` in place, starting at phase
/// `phase0` (radians) for the first sample. Returns the phase after the last
/// sample so correction can be continued across buffers.
///
/// The rotation is walked by [`rotate_ramp`] (one complex multiplication per
/// sample, an exact anchor every 64), so the factor on sample `n` depends on
/// `n` alone: correcting a prefix gives that prefix of the whole, bit for
/// bit.
pub fn correct_cfo(
    params: &OfdmParams,
    samples: &mut [Complex64],
    freq_hz: f64,
    phase0: f64,
) -> f64 {
    let dphi = -2.0 * std::f64::consts::PI * freq_hz * params.sample_period();
    rotate_ramp(samples, phase0, dphi);
    phase0 + dphi * samples.len() as f64
}

/// Refines symbol timing by cross-correlating with the known 64-sample LTF
/// symbol around a coarse estimate.
///
/// `coarse_ltf_start` is the expected index of the *LTF field* start (the
/// guard). Searches ±`radius` samples and returns the refined LTF field
/// start index.
pub fn refine_timing(
    params: &OfdmParams,
    samples: &[Complex64],
    coarse_ltf_start: usize,
    radius: usize,
) -> usize {
    let reference = ltf_symbol(params);
    let mut best_idx = coarse_ltf_start;
    let mut best_metric = -1.0f64;
    let lo = coarse_ltf_start.saturating_sub(radius);
    let hi = (coarse_ltf_start + radius).min(samples.len().saturating_sub(LTF_LEN));
    for cand in lo..=hi {
        // The first full LTF symbol starts 32 samples into the field.
        let sym_start = cand + 32;
        if sym_start + 64 > samples.len() {
            break;
        }
        let mut corr = Complex64::ZERO;
        let mut power = 0.0;
        for n in 0..64 {
            corr += samples[sym_start + n] * reference[n].conj();
            power += samples[sym_start + n].norm_sqr();
        }
        let metric = if power > 1e-18 {
            corr.norm_sqr() / power
        } else {
            0.0
        };
        if metric > best_metric {
            best_metric = metric;
            best_idx = cand;
        }
    }
    best_idx
}

/// How far [`synchronize`]'s LTF search reaches either side of the nominal
/// LTF start.
const LTF_SEARCH_RADIUS: usize = 80;

/// Samples past the STF start that [`synchronize`] reads after its coarse
/// correction: the timing search's last candidate (`STF_LEN + 80`) plus one
/// LTF field, which also bounds the fine-CFO region.
const SYNC_READS: usize = STF_LEN + LTF_SEARCH_RADIUS + LTF_LEN;

/// Full synchronisation: detect, estimate CFO (coarse from STF then fine from
/// the CFO-corrected LTF), refine timing. Returns `None` if no packet found.
///
/// This is the receiver front end shared by clients and slave APs.
pub fn synchronize(params: &OfdmParams, samples: &[Complex64]) -> Option<SyncResult> {
    let stf_start = detect_packet(samples, 0.6)?;
    if stf_start + STF_LEN + LTF_LEN > samples.len() {
        return None;
    }
    // Coarse CFO from the STF interior. Both ends are trimmed so that a
    // timing error of a few samples (multipath shifts the correlation peak)
    // cannot pull foreign samples — one contaminated lag pair is enough to
    // bias the estimate by hundreds of Hz.
    let stf_region = &samples[stf_start + 16..stf_start + STF_LEN - 8];
    let coarse = coarse_cfo(params, stf_region);

    // Correct, then refine timing and estimate fine CFO on the LTF. The
    // autocorrelation detector can fire up to a correlation window (64
    // samples) early when the medium is silent before the packet — with low
    // noise the metric is ≈1 from the first overlapping sample — so the LTF
    // cross-correlation search radius must cover the full slop. The search
    // stays below the first payload symbol (320), so it cannot false-peak
    // on data. Both read at most `SYNC_READS` samples past the STF start,
    // so only those are copied and corrected (the factor on a sample
    // depends on its index alone, so the prefix is the whole's).
    let frame = &samples[stf_start..];
    let mut buf = [Complex64::ZERO; SYNC_READS];
    let work = &mut buf[..frame.len().min(SYNC_READS)];
    work.copy_from_slice(&frame[..work.len()]);
    correct_cfo(params, work, coarse, 0.0);
    let ltf_coarse = STF_LEN; // LTF nominally right after STF in `work`
    let ltf_start = refine_timing(params, work, ltf_coarse, LTF_SEARCH_RADIUS);
    // Fine CFO from the interior of the two repeated LTF symbols, trimmed
    // for the same timing tolerance as above.
    let ltf_region = &work[ltf_start + 40..ltf_start + LTF_LEN - 8];
    let fine = fine_cfo(params, ltf_region);

    Some(SyncResult {
        // Adjust STF start by the timing refinement found at the LTF, then
        // back off into the CP.
        stf_start: (stf_start + ltf_start - STF_LEN).saturating_sub(TIMING_BACKOFF),
        cfo_hz: coarse + fine,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::preamble;

    fn params() -> OfdmParams {
        OfdmParams::default()
    }

    /// Builds `pad_front` zeros + preamble (with CFO applied) + `pad_back` zeros.
    fn padded_preamble(p: &OfdmParams, pad_front: usize, cfo_hz: f64) -> Vec<Complex64> {
        let mut v = vec![Complex64::ZERO; pad_front];
        let pre = preamble::preamble(p);
        let ts = p.sample_period();
        for (n, &x) in pre.iter().enumerate() {
            let phase = 2.0 * std::f64::consts::PI * cfo_hz * (n as f64) * ts;
            v.push(x * Complex64::cis(phase));
        }
        v.extend(vec![Complex64::ZERO; 200]);
        v
    }

    #[test]
    fn detects_clean_preamble() {
        let p = params();
        let sig = padded_preamble(&p, 100, 0.0);
        let found = detect_packet(&sig, 0.6).expect("detection");
        // The autocorrelation metric ramps up while the window straddles the
        // silent/packet boundary, so detection may fire early; synchronize()
        // fixes the residual with LTF cross-correlation.
        assert!(
            (found as isize - 100).unsigned_abs() <= 32,
            "found at {found}, expected ≈100"
        );
    }

    #[test]
    fn no_false_alarm_on_noise() {
        // Deterministic pseudo-noise.
        let mut s: u64 = 9;
        let mut next = || {
            s ^= s << 13;
            s ^= s >> 7;
            s ^= s << 17;
            (s as f64 / u64::MAX as f64) - 0.5
        };
        let noise: Vec<Complex64> = (0..2000).map(|_| Complex64::new(next(), next())).collect();
        assert_eq!(detect_packet(&noise, 0.6), None);
    }

    #[test]
    fn no_detection_in_short_buffers() {
        assert_eq!(detect_packet(&[Complex64::ONE; 10], 0.6), None);
    }

    #[test]
    fn coarse_cfo_accuracy() {
        let p = params();
        for &f in &[-40e3, -5e3, 0.0, 1e3, 20e3, 48e3] {
            let sig = padded_preamble(&p, 0, f);
            let est = coarse_cfo(&p, &sig[16..STF_LEN]);
            assert!((est - f).abs() < 50.0, "cfo {f}: est {est}");
        }
    }

    #[test]
    fn fine_cfo_accuracy() {
        let p = params();
        for &f in &[-600.0, -100.0, 0.0, 250.0, 700.0] {
            let sig = padded_preamble(&p, 0, f);
            let ltf_region = &sig[STF_LEN + 32..STF_LEN + LTF_LEN];
            let est = fine_cfo(&p, ltf_region);
            assert!((est - f).abs() < 5.0, "cfo {f}: est {est}");
        }
    }

    #[test]
    fn correct_cfo_inverts_offset() {
        let p = params();
        let f = 12_345.0;
        let mut sig = padded_preamble(&p, 0, f);
        correct_cfo(&p, &mut sig, f, 0.0);
        let clean = preamble::preamble(&p);
        for (a, b) in sig.iter().zip(&clean) {
            assert!((*a - *b).abs() < 1e-9);
        }
    }

    #[test]
    fn correct_cfo_phase_continuity() {
        // Continuing from the returned phase re-anchors the second half at
        // `phase0 + dphi·n`: the halves undo the offset, agree with the
        // whole buffer corrected at once to within the walk's rounding, and
        // end on its phase to within an ulp.
        let p = params();
        let f = 5_000.0;
        let mut whole = padded_preamble(&p, 0, f);
        let mut a = whole.clone();
        let mut b = a.split_off(160);
        let phase = correct_cfo(&p, &mut a, f, 0.0);
        let split_end = correct_cfo(&p, &mut b, f, phase);
        let end = correct_cfo(&p, &mut whole, f, 0.0);
        let clean = preamble::preamble(&p);
        for (x, y) in a.iter().chain(b.iter()).zip(&clean) {
            assert!((*x - *y).abs() < 1e-9);
        }
        for (i, (s, w)) in a.iter().chain(&b).zip(&whole).enumerate() {
            assert!((*s - *w).abs() <= 1e-12, "sample {i}: {s} vs {w}");
        }
        let ulp = f64::EPSILON * end.abs();
        assert!((split_end - end).abs() <= ulp, "{split_end} vs {end}");
    }

    #[test]
    fn synchronize_reads_only_the_corrected_prefix() {
        // The search and the fine CFO on a copy of the whole remaining
        // window, corrected end to end, give the same result bit for bit.
        let p = params();
        let mut sig = padded_preamble(&p, 90, 17_000.0);
        sig.extend((0..900).map(|i| Complex64::cis(0.3 * i as f64).scale(0.7)));
        let got = synchronize(&p, &sig).expect("sync");
        let stf_start = detect_packet(&sig, 0.6).unwrap();
        let coarse = coarse_cfo(&p, &sig[stf_start + 16..stf_start + STF_LEN - 8]);
        let mut work = sig[stf_start..].to_vec();
        correct_cfo(&p, &mut work, coarse, 0.0);
        let ltf_start = refine_timing(&p, &work, STF_LEN, LTF_SEARCH_RADIUS);
        let fine = fine_cfo(&p, &work[ltf_start + 40..ltf_start + LTF_LEN - 8]);
        assert_eq!(got.cfo_hz.to_bits(), (coarse + fine).to_bits());
        assert_eq!(
            got.stf_start,
            (stf_start + ltf_start - STF_LEN).saturating_sub(TIMING_BACKOFF)
        );
    }

    #[test]
    fn timing_refinement_finds_exact_start() {
        let p = params();
        let sig = padded_preamble(&p, 77, 0.0);
        // True LTF field start is 77 + 160 = 237; perturb the coarse guess.
        for coarse in [231, 237, 243] {
            let refined = refine_timing(&p, &sig, coarse, 8);
            assert_eq!(refined, 237, "coarse {coarse}");
        }
    }

    #[test]
    fn full_synchronize_recovers_timing_and_cfo() {
        let p = params();
        let true_cfo = 23_456.0;
        let sig = padded_preamble(&p, 150, true_cfo);
        let sync = synchronize(&p, &sig).expect("sync");
        assert_eq!(sync.stf_start, 150 - TIMING_BACKOFF, "timing");
        assert!(
            (sync.cfo_hz - true_cfo).abs() < 20.0,
            "cfo est {} vs {true_cfo}",
            sync.cfo_hz
        );
    }

    #[test]
    fn synchronize_none_when_truncated() {
        let p = params();
        let sig = padded_preamble(&p, 10, 0.0);
        assert!(synchronize(&p, &sig[..200]).is_none());
    }

    #[test]
    fn cfo_estimate_noise_floor() {
        // With a modest additive disturbance the estimate degrades gracefully.
        let p = params();
        let f = 10_000.0;
        let mut sig = padded_preamble(&p, 0, f);
        let mut s: u64 = 17;
        let mut next = || {
            s ^= s << 13;
            s ^= s >> 7;
            s ^= s << 17;
            ((s as f64 / u64::MAX as f64) - 0.5) * 0.02
        };
        for x in sig.iter_mut() {
            *x += Complex64::new(next(), next());
        }
        let est = coarse_cfo(&p, &sig[16..STF_LEN]);
        assert!((est - f).abs() < 500.0, "est {est}");
    }
}
