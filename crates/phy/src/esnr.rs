//! Effective SNR and rate selection.
//!
//! JMB selects bitrates with "the effective SNR algorithm, which is designed
//! for rate selection for 802.11-like frequency selective wideband channels
//! \[13\]" (§9, Halperin et al.). The idea: per-subcarrier SNRs are mapped
//! through an error model, averaged where errors actually combine, and
//! mapped back to a single scalar "effective SNR" that can be compared
//! against flat-channel MCS thresholds. The error model here is the
//! exponential one (EESM, [`effective_snr_db_eesm`]), one β per MCS.
//!
//! Because JMB's zero-forcing precoder gives every client the same
//! per-subcarrier signal power `k²` (§9), APs compute each client's
//! subcarrier SNRs as `k²/N` from the fed-back noise `N` and run this module
//! to pick the rate.
//!
//! Every SNR this module takes is linear power, as the callers hold it; dB
//! appears only in what it returns and in the threshold table.
//!
//! The uncoded-BER model the EESM superseded (`erfc` through
//! `effective_snr_db`, averaging in the bit-error-rate domain) is compiled
//! for the tests alone, as the reference the EESM's docs compare against.

use crate::rates::Mcs;
use jmb_dsp::elementary::exp;
use jmb_dsp::stats::lin_to_db;

/// Minimum effective SNR (dB) at which each MCS sustains a ~1% packet error
/// rate for ~1500-byte frames — the lookup table of \[13\], Table 1 ballpark.
///
/// Indexed like [`Mcs::ALL`], ascending.
pub const MCS_THRESHOLD_DB: [f64; 8] = [2.5, 5.0, 5.5, 8.5, 11.5, 15.0, 18.5, 20.5];

/// Per-MCS EESM β parameters, indexed like [`Mcs::ALL`].
///
/// Roughly 2× the LTE-calibrated values: our receiver feeds CSI-weighted
/// soft LLRs to a full-traceback Viterbi decoder over a 48-subcarrier
/// interleaver, which rides through deep per-subcarrier fades noticeably
/// better than the hard-combining LTE link models those β's were fit to.
/// The values are set by hand: no test holds them against a decode by the
/// sample-level PHY, and none will until ROADMAP item 10 fits them (with
/// [`MCS_THRESHOLD_DB`]) to this repo's own decoder.
pub const MCS_EESM_BETA: [f64; 8] = [1.5, 2.5, 3.0, 5.0, 8.0, 14.0, 28.0, 36.0];

/// Exponential effective-SNR mapping (EESM) for one MCS:
/// `eff = −β·ln( mean_k exp(−ρ_k/β) )`, its terms added in subcarrier order.
/// The exponentials are [`jmb_dsp::elementary::exp`]'s (within 2 ulp of
/// glibc's), taken a lane pass at a time.
///
/// `snrs` are the per-subcarrier linear SNRs `ρ_k`; the result is in dB,
/// ready for [`MCS_THRESHOLD_DB`]. Identical to the per-subcarrier SNR on a
/// flat channel. Unlike the raw BER-mean of `effective_snr_db`, EESM
/// degrades *gracefully* when a few subcarriers are dead (e.g.
/// zero-forcing inversion holes): the coded 802.11 PHY treats those as
/// soft erasures — its interleaver spreads them and the CSI-weighted
/// Viterbi metric nulls them — rather than as a flood of bit errors, and
/// EESM models exactly that.
pub fn effective_snr_db_eesm(mcs: Mcs, snrs: &[f64]) -> f64 {
    assert!(!snrs.is_empty(), "effective SNR of no subcarriers");
    let beta = MCS_EESM_BETA[mcs.index()];
    let mut sum = 0.0f64;
    let mut terms = [0.0f64; 64];
    for row in snrs.chunks(terms.len()) {
        let terms = &mut terms[..row.len()];
        for (e, &s) in terms.iter_mut().zip(row) {
            *e = exp(-s / beta);
        }
        for &e in terms.iter() {
            sum += e;
        }
    }
    let mean = sum / snrs.len() as f64;
    lin_to_db((-beta * mean.ln()).max(1e-9))
}

/// How far (dB) a row's mean SNR must sit under an MCS threshold before
/// [`from_the_mean`] skips that MCS: a million times the 1e-12 dB by which
/// a rounded EESM or mean can at most stray from its exact value near a
/// threshold. Each of up to 64 terms is an `exp` within 2 ulp of glibc's,
/// so within 3 ulp (6.7e-16 relative) of the exact exponential; the 63
/// additions of positive terms add at most 7.0e-15 relative to the sum and
/// the division one rounding more, so `ln(mean)` strays by at most
/// 7.8e-15 absolute — under 1.6e-13 of `|ln(mean)| ≥ 1.78/β ≥ 0.049` (1.78
/// being the lowest threshold in linear power) — and the EESM by about
/// 7e-13 dB, under the 1e-12.
pub const SCREEN_MARGIN_DB: f64 = 1e-6;

/// The arithmetic mean of linear SNRs, in dB: what [`from_the_mean`]
/// screens a row by. NaN for no subcarriers.
pub fn mean_snr_db(snrs: &[f64]) -> f64 {
    lin_to_db(snrs.iter().sum::<f64>() / snrs.len() as f64)
}

/// The MCSs worth an EESM sum for a row whose mean SNR is `mean_db`, from
/// MCS 7 down: every MCS except those whose threshold lies more than
/// [`SCREEN_MARGIN_DB`] above the mean.
///
/// The skip is exact. `exp(−ρ/β)` is convex, so by Jensen the mean of the
/// exponentials is at least the exponential of the mean, and the EESM never
/// exceeds the arithmetic mean SNR: an MCS the mean misses, its EESM misses
/// too. Two edge cases of the arithmetic cannot break this. The `1e-9`
/// clamp on the EESM lies far under the lowest threshold (2.5 dB). And a
/// row the screen rejects has a mean under the top threshold (≤ 112
/// linear), so one of its subcarriers at least sits at or under 112 and
/// keeps `exp(−ρ/β) ≥ e⁻⁷⁵`: its sum cannot underflow to 0 and send the
/// EESM to +∞. A NaN mean skips nothing.
pub fn from_the_mean(mean_db: f64) -> impl Iterator<Item = Mcs> {
    Mcs::ALL
        .iter()
        .rev()
        .copied()
        .skip_while(move |m| mean_db < MCS_THRESHOLD_DB[m.index()] - SCREEN_MARGIN_DB)
}

/// Picks the fastest MCS whose threshold the EESM effective SNR clears.
///
/// `snrs` are per-subcarrier linear SNRs. Evaluates the effective SNR *per
/// candidate MCS* (each weighs subcarrier fades differently), as \[13\]
/// prescribes, from MCS 7 down, and returns the first that clears; an MCS
/// whose threshold the mean SNR cannot reach is passed over without a sum
/// ([`from_the_mean`]), so a good channel costs one or two sums instead of
/// eight, and a poor one no more than the rates it can reach. Returns
/// `None` if even BPSK 1/2 is below threshold (no usable rate → defer).
///
/// # Panics
///
/// Panics on no subcarriers.
pub fn select_mcs(snrs: &[f64]) -> Option<Mcs> {
    assert!(!snrs.is_empty(), "effective SNR of no subcarriers");
    from_the_mean(mean_snr_db(snrs))
        .find(|&mcs| effective_snr_db_eesm(mcs, snrs) >= MCS_THRESHOLD_DB[mcs.index()])
}

/// Packet error rate of a stream whose effective SNR sits `margin_db` above
/// its MCS threshold — the one residual-PER curve every layer that turns a
/// margin into a delivery uses (the traffic backends' ACK draw, the figure
/// harness's goodput).
///
/// Calibrated to the rate table's design point: ~10 % PER right at
/// threshold, an order of magnitude per ~2.3 dB of margin, saturating at 1
/// a little below threshold — and at the `±∞` a real decode reports, 0 or 1.
pub fn per_at_margin(margin_db: f64) -> f64 {
    (0.1 * (-margin_db).exp()).min(1.0)
}

/// Complementary error function, Abramowitz & Stegun 7.1.26-based
/// approximation (|error| < 1.5e-7 — far below any SNR modelling error).
#[cfg(test)]
pub fn erfc(x: f64) -> f64 {
    if x < 0.0 {
        return 2.0 - erfc(-x);
    }
    let t = 1.0 / (1.0 + 0.3275911 * x);
    let poly = t
        * (0.254829592
            + t * (-0.284496736 + t * (1.421413741 + t * (-1.453152027 + t * 1.061405429))));
    poly * (-x * x).exp()
}

/// Gaussian tail probability `Q(x) = P(N(0,1) > x)`.
#[cfg(test)]
pub fn q_func(x: f64) -> f64 {
    0.5 * erfc(x / std::f64::consts::SQRT_2)
}

/// Uncoded bit-error rate of a modulation at per-symbol SNR `snr` (linear).
///
/// Standard Gray-mapped approximations:
/// * BPSK: `Q(√(2ρ))`
/// * QPSK: `Q(√ρ)`
/// * 16-QAM: `(3/4)·Q(√(ρ/5))`
/// * 64-QAM: `(7/12)·Q(√(ρ/21))`
#[cfg(test)]
pub fn ber(modulation: crate::modulation::Modulation, snr: f64) -> f64 {
    let snr = snr.max(0.0);
    match modulation {
        crate::modulation::Modulation::Bpsk => q_func((2.0 * snr).sqrt()),
        crate::modulation::Modulation::Qpsk => q_func(snr.sqrt()),
        crate::modulation::Modulation::Qam16 => 0.75 * q_func((snr / 5.0).sqrt()),
        crate::modulation::Modulation::Qam64 => (7.0 / 12.0) * q_func((snr / 21.0).sqrt()),
    }
}

/// Inverse of [`ber`] in SNR: the linear SNR at which `modulation` has
/// bit-error rate `target`. Solved by bisection (BER is monotone in SNR).
#[cfg(test)]
pub fn snr_for_ber(modulation: crate::modulation::Modulation, target: f64) -> f64 {
    let target = target.clamp(1e-12, 0.5);
    let (mut lo, mut hi) = (0.0f64, jmb_dsp::stats::db_to_lin(40.0));
    for _ in 0..200 {
        let mid = 0.5 * (lo + hi);
        if ber(modulation, mid) > target {
            lo = mid;
        } else {
            hi = mid;
        }
    }
    0.5 * (lo + hi)
}

/// Effective SNR of a frequency-selective channel for a modulation:
/// average the per-subcarrier BERs, then invert back to SNR.
///
/// `snrs` are per-subcarrier linear SNRs. Returns effective SNR in dB.
#[cfg(test)]
pub fn effective_snr_db(modulation: crate::modulation::Modulation, snrs: &[f64]) -> f64 {
    assert!(!snrs.is_empty(), "effective SNR of no subcarriers");
    let mean_ber = snrs.iter().map(|&s| ber(modulation, s)).sum::<f64>() / snrs.len() as f64;
    lin_to_db(snr_for_ber(modulation, mean_ber))
}

/// Data rate (bits/s) the selected MCS achieves from linear per-subcarrier
/// SNRs, or 0 if no rate is usable.
#[cfg(test)]
pub fn achievable_rate(params: &crate::params::OfdmParams, snrs: &[f64]) -> f64 {
    select_mcs(snrs).map_or(0.0, |m| m.bitrate(params))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::modulation::Modulation;
    use crate::params::{ChannelProfile, OfdmParams};
    use jmb_dsp::stats::db_to_lin;

    #[test]
    fn erfc_known_values() {
        assert!((erfc(0.0) - 1.0).abs() < 1e-7);
        assert!((erfc(1.0) - 0.157_299_2).abs() < 1e-6);
        assert!((erfc(-1.0) - 1.842_700_8).abs() < 1e-6);
        assert!(erfc(5.0) < 2e-11);
    }

    #[test]
    fn q_func_known_values() {
        assert!((q_func(0.0) - 0.5).abs() < 1e-9);
        assert!((q_func(1.0) - 0.158_655_3).abs() < 1e-6);
        assert!((q_func(3.0) - 1.349_898e-3).abs() < 1e-7);
    }

    #[test]
    fn ber_ordering_by_modulation() {
        // At equal SNR, denser constellations have higher BER.
        for &snr_db in &[5.0, 10.0, 15.0, 20.0] {
            let snr = db_to_lin(snr_db);
            let b = ber(Modulation::Bpsk, snr);
            let q = ber(Modulation::Qpsk, snr);
            let q16 = ber(Modulation::Qam16, snr);
            let q64 = ber(Modulation::Qam64, snr);
            assert!(b <= q && q <= q16 && q16 <= q64, "at {snr_db} dB");
        }
    }

    #[test]
    fn ber_monotone_decreasing_in_snr() {
        for m in [
            Modulation::Bpsk,
            Modulation::Qpsk,
            Modulation::Qam16,
            Modulation::Qam64,
        ] {
            let mut prev = 1.0;
            for s in 0..30 {
                let b = ber(m, db_to_lin(s as f64));
                assert!(b <= prev + 1e-15, "{m:?} at {s} dB");
                prev = b;
            }
        }
    }

    #[test]
    fn bpsk_ber_textbook_point() {
        // BPSK at Eb/N0 ≈ 9.6 dB has BER ≈ 1e-5.
        let b = ber(Modulation::Bpsk, db_to_lin(9.6));
        assert!(b > 3e-6 && b < 3e-5, "BER {b}");
    }

    #[test]
    fn snr_for_ber_inverts_ber() {
        for m in [Modulation::Bpsk, Modulation::Qam16, Modulation::Qam64] {
            for &target in &[1e-2, 1e-3, 1e-5] {
                let snr = snr_for_ber(m, target);
                let back = ber(m, snr);
                assert!(
                    (back.log10() - target.log10()).abs() < 0.05,
                    "{m:?}: target {target}, got {back}"
                );
            }
        }
    }

    /// A row of `n` subcarriers flat at `snr_db`, linear.
    fn flat(snr_db: f64, n: usize) -> Vec<f64> {
        vec![db_to_lin(snr_db); n]
    }

    #[test]
    fn effective_snr_of_flat_channel_is_identity() {
        for m in [
            Modulation::Bpsk,
            Modulation::Qpsk,
            Modulation::Qam16,
            Modulation::Qam64,
        ] {
            // Pick mid-range SNRs where the BER curve is informative for the
            // modulation (flat very-high SNR saturates BER to ~0).
            for &snr in &[6.0, 10.0, 14.0] {
                let eff = effective_snr_db(m, &flat(snr, 48));
                assert!((eff - snr).abs() < 0.1, "{m:?} at {snr}: eff {eff}");
            }
        }
    }

    #[test]
    fn effective_snr_penalises_fades() {
        // One deeply faded subcarrier drags the effective SNR below the mean.
        let mut snrs = flat(15.0, 48);
        snrs[0] = db_to_lin(-5.0);
        let eff = effective_snr_db(Modulation::Qam16, &snrs);
        let mean = 15.0 * 47.0 / 48.0 - 5.0 / 48.0;
        assert!(eff < mean - 0.5, "eff {eff} vs mean {mean}");
    }

    #[test]
    fn select_mcs_monotone_in_snr() {
        let mut prev_rate = 0.0;
        let p = OfdmParams::new(ChannelProfile::Wifi20MHz);
        for snr_db in 0..32 {
            let rate = achievable_rate(&p, &flat(snr_db as f64, 48));
            assert!(rate >= prev_rate, "rate dropped at {snr_db} dB");
            prev_rate = rate;
        }
    }

    /// The scan `select_mcs` replaced: every MCS from BPSK 1/2 up, the
    /// last whose threshold clears, each effective SNR from the per-MCS
    /// formula — no screen.
    fn select_mcs_ascending(snrs: &[f64]) -> Option<Mcs> {
        let mut best = None;
        for (i, mcs) in Mcs::ALL.iter().enumerate() {
            if effective_snr_db_eesm(*mcs, snrs) >= MCS_THRESHOLD_DB[i] {
                best = Some(*mcs);
            }
        }
        best
    }

    /// The EESM as it was written over dB input: each subcarrier through
    /// `db_to_lin` first.
    fn eesm_of_db(mcs: Mcs, snrs_db: &[f64]) -> f64 {
        let beta = MCS_EESM_BETA[mcs.index()];
        let mean = snrs_db
            .iter()
            .map(|&s| (-db_to_lin(s) / beta).exp())
            .sum::<f64>()
            / snrs_db.len() as f64;
        lin_to_db((-beta * mean.ln()).max(1e-9))
    }

    #[test]
    fn shared_linear_snrs_leave_every_eesm_bit_alone() {
        // On a selective channel with a dead subcarrier and a saturated one.
        let snrs: Vec<f64> = (0..52)
            .map(|k| 14.0 + 9.0 * (k as f64 * 0.7).sin() - if k == 9 { 40.0 } else { 0.0 })
            .chain([55.0])
            .map(db_to_lin)
            .collect();
        for (i, mcs) in Mcs::ALL.iter().enumerate() {
            let beta = MCS_EESM_BETA[i];
            let mean = snrs.iter().map(|&s| exp(-s / beta)).sum::<f64>() / snrs.len() as f64;
            let want = lin_to_db((-beta * mean.ln()).max(1e-9));
            assert_eq!(effective_snr_db_eesm(*mcs, &snrs).to_bits(), want.to_bits());
        }
        assert_eq!(select_mcs(&snrs), select_mcs_ascending(&snrs));
    }

    #[test]
    fn thresholds_ascend() {
        // `from_the_mean` skips a prefix of the scan from the top: sound
        // only while the thresholds rise with the MCS.
        assert!(MCS_THRESHOLD_DB.windows(2).all(|w| w[0] < w[1]));
        assert!(MCS_THRESHOLD_DB[0] > lin_to_db(1e-9) + 1.0);
        assert!(db_to_lin(MCS_THRESHOLD_DB[7]) < 113.0);
        assert!(exp(-113.0 / MCS_EESM_BETA[0]) > 0.0);
    }

    #[test]
    fn the_screen_skips_only_what_the_mean_rules_out() {
        let top = |mean_db: f64| from_the_mean(mean_db).next();
        assert_eq!(top(f64::INFINITY), Some(Mcs::ALL[7]));
        assert_eq!(top(f64::NAN), Some(Mcs::ALL[7]));
        assert_eq!(top(f64::NEG_INFINITY), None);
        assert_eq!(top(MCS_THRESHOLD_DB[0] - 2.0 * SCREEN_MARGIN_DB), None);
        for (i, &thr) in MCS_THRESHOLD_DB.iter().enumerate() {
            assert_eq!(top(thr), Some(Mcs::ALL[i]));
            assert_eq!(top(thr - 0.5 * SCREEN_MARGIN_DB), Some(Mcs::ALL[i]));
            assert_eq!(from_the_mean(thr).count(), i + 1);
        }
    }

    mod from_the_top {
        use super::*;
        use proptest::prelude::*;

        /// A subcarrier SNR (linear): anywhere in the rate table's range,
        /// just either side of one MCS threshold, dead (0 or 1e-300), so
        /// strong every `exp` underflows (≥ 1e6), or NaN / +∞.
        fn snr() -> impl Strategy<Value = f64> {
            let parts = (
                (0u8..14, 0usize..8),
                -10.0..40.0f64,
                -1e-9..1e-9f64,
                6.0..300.0f64,
            );
            parts.prop_map(|((kind, i), anywhere, near, huge)| match kind {
                0..=3 => db_to_lin(anywhere),
                4..=7 => db_to_lin(MCS_THRESHOLD_DB[i] + near),
                8 => f64::NAN,
                9 => f64::INFINITY,
                10 => 0.0,
                11 => 1e-300,
                12 => 10f64.powf(huge),
                _ => db_to_lin(MCS_THRESHOLD_DB[i]),
            })
        }

        /// A row of 1 to 64 subcarriers: selective, flat on one drawn
        /// value, or flat with one dead subcarrier.
        fn row() -> impl Strategy<Value = Vec<f64>> {
            let parts = (
                0u8..3,
                snr(),
                prop::collection::vec(snr(), 1..65),
                0usize..64,
            );
            parts.prop_map(|(shape, level, mut row, dead)| {
                if shape > 0 {
                    row.fill(level);
                }
                if shape == 2 {
                    let at = dead % row.len();
                    row[at] = 0.0;
                }
                row
            })
        }

        proptest! {
            #![proptest_config(ProptestConfig::with_cases(512))]

            /// The screened scan from MCS 7 down picks what the ascending
            /// scan picked, on bands of 1 to 64 subcarriers.
            #[test]
            fn select_mcs_matches_the_ascending_scan(snrs in row()) {
                prop_assert_eq!(select_mcs(&snrs), select_mcs_ascending(&snrs));
            }

            /// A flat channel sitting exactly on, or a few ulps either side
            /// of, a threshold (in dB, and in linear power): the EESM of a
            /// flat channel is its SNR give or take rounding, so both scans
            /// must round alike.
            #[test]
            fn flat_channels_on_a_threshold(i in 0usize..8, ulps in -2i64..3, n in 1usize..65) {
                let nudge = |x: f64| f64::from_bits((x.to_bits() as i64 + ulps) as u64);
                for at in [db_to_lin(nudge(MCS_THRESHOLD_DB[i])), nudge(db_to_lin(MCS_THRESHOLD_DB[i]))] {
                    let snrs = vec![at; n];
                    prop_assert_eq!(select_mcs(&snrs), select_mcs_ascending(&snrs));
                }
            }

            /// The linear EESM of a row reads as the dB-input form it
            /// replaced did on the row's `lin_to_db` — the round trip every
            /// caller used to make — to 1e-12 dB.
            #[test]
            fn linear_eesm_matches_the_db_form(
                snrs in prop::collection::vec((-10.0..40.0f64).prop_map(db_to_lin), 1..65),
                i in 0usize..8,
            ) {
                let snrs_db: Vec<f64> = snrs.iter().map(|&s| lin_to_db(s)).collect();
                let (got, want) = (effective_snr_db_eesm(Mcs::ALL[i], &snrs), eesm_of_db(Mcs::ALL[i], &snrs_db));
                prop_assert!((got - want).abs() <= 1e-12, "{} vs {}", got, want);
            }
        }
    }

    #[test]
    fn select_mcs_endpoints() {
        assert_eq!(select_mcs(&flat(-5.0, 48)), None);
        assert_eq!(select_mcs(&flat(30.0, 48)), Some(Mcs::ALL[7]));
        assert_eq!(select_mcs(&flat(3.0, 48)), Some(Mcs::ALL[0]));
        assert_eq!(select_mcs(&[0.0; 48]), None);
        assert_eq!(select_mcs(&[1e7; 48]), Some(Mcs::ALL[7]));
    }

    #[test]
    fn paper_snr_bands_rates() {
        // Sanity against §11.2: 802.11 (half-rate 10 MHz profile) throughput
        // at low SNR ≈ 7.75 Mbps, medium ≈ 14.9, high ≈ 23.6. Our table should
        // put low/mid/high-band flat channels in the same rate neighbourhoods:
        // low (6–12 dB) → 6-18 Mbps class, high (>18 dB) → 24-27 Mbps class.
        let p = OfdmParams::new(ChannelProfile::Usrp10MHz);
        let low = achievable_rate(&p, &flat(9.0, 48)) / 1e6;
        let med = achievable_rate(&p, &flat(15.0, 48)) / 1e6;
        let high = achievable_rate(&p, &flat(21.0, 48)) / 1e6;
        assert!((3.0..=9.0).contains(&low), "low {low}");
        assert!((9.0..=18.0).contains(&med), "med {med}");
        assert!((18.0..=27.0).contains(&high), "high {high}");
        assert!(low < med && med < high);
    }

    #[test]
    fn per_curve_anchors() {
        assert!((per_at_margin(0.0) - 0.1).abs() < 1e-12);
        assert!((per_at_margin(10f64.ln()) - 0.01).abs() < 1e-12);
        assert_eq!(per_at_margin(-10f64.ln()), 1.0);
        assert_eq!(per_at_margin(f64::NEG_INFINITY), 1.0);
        assert_eq!(per_at_margin(f64::INFINITY), 0.0);
        // At the 22 dB band's margin over the fastest rate the loss is a few
        // percent: goodput stays within a whisker of the peak rate.
        let margin = 22.0 - MCS_THRESHOLD_DB[7];
        assert!(per_at_margin(margin) < 0.03, "{}", per_at_margin(margin));
    }

    #[test]
    #[should_panic(expected = "no subcarriers")]
    fn effective_snr_rejects_empty() {
        effective_snr_db(Modulation::Bpsk, &[]);
    }
}
