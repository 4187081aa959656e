//! The channel-measurement phase (§5.1).
//!
//! Layout of the measurement packet on the air (sample offsets from the
//! reference time `t₀`, which is the packet start):
//!
//! ```text
//! | lead STF (160) | lead LTF (160) | slave₁ LTF | … | slaveₙ LTF |
//! |       round 0: lead sym | slave₁ sym | … | slaveₙ sym |
//! |       round 1: …                                        × R rounds
//! ```
//!
//! * The lead's preamble is the **sync header**: clients synchronise to it,
//!   and every slave measures its reference channel `h_lead(0)` from it.
//! * The per-slave LTF fields give each client a *coarse CFO* estimate per
//!   AP ("the receiver computes and uses different CFO and channel
//!   estimates for symbols corresponding to different APs", §5.1b).
//! * The interleaved rounds are the actual channel snapshot: one OFDM
//!   symbol per AP per round, repeated R times "to enable the clients to
//!   obtain accurate channel measurements by averaging" and interleaved
//!   "because we want the channels to be measured as if they were measured
//!   at the same time" (§5.1a).
//!
//! Client-side processing rotates every estimate back to `t₀` using the
//! per-AP CFO (refined across rounds), then averages — the receiver-side
//! algorithm of §5.1b.

use crate::error::JmbError;
use jmb_dsp::complex::wrap_phase;
use jmb_dsp::{fft, Complex64};
use jmb_phy::chanest::ChannelEstimate;
use jmb_phy::params::OfdmParams;
use jmb_phy::preamble;
use jmb_phy::sync;

/// The reference-time anchor within the measurement packet (and within
/// every sync header): the midpoint of the lead's LTF, in samples from the
/// packet start. All channel estimates — clients' per-AP estimates and
/// slaves' reference channels — are phase-referred to this instant.
pub const REF_ANCHOR: f64 = 240.0;

/// Ordering of the channel-estimation slots within the measurement packet.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum SlotOrder {
    /// The paper's design (§5.1a): round-robin across APs, "because we want
    /// the channels to be measured as if they were measured at the same
    /// time" — each AP's samples sit at most one round from any other's.
    #[default]
    Interleaved,
    /// The ablation: each AP transmits its R symbols back to back, so the
    /// last AP's block is measured an entire packet after the first's, and
    /// the rotation back to the reference time must span that gap — CFO
    /// estimation error then rotates its whole column.
    Sequential,
}

/// Sample-layout of one measurement packet.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct MeasurementPlan {
    /// Total number of APs (lead + slaves).
    pub n_aps: usize,
    /// Number of repeated estimation rounds.
    pub rounds: usize,
    /// Slot ordering (interleaved per the paper, or the sequential ablation).
    pub order: SlotOrder,
}

impl MeasurementPlan {
    /// Creates a plan with an explicit slot ordering.
    ///
    /// # Panics
    ///
    /// Panics if `n_aps == 0` or `rounds == 0`.
    pub(crate) fn with_order(n_aps: usize, rounds: usize, order: SlotOrder) -> Self {
        assert!(
            n_aps > 0 && rounds > 0,
            "need at least one AP and one round"
        );
        MeasurementPlan {
            n_aps,
            rounds,
            order,
        }
    }

    /// Offset of slave `i`'s CFO field (its LTF); `i` is 1-based slave
    /// numbering (slave 1 is AP 1).
    fn cfo_field_offset(&self, slave: usize) -> usize {
        debug_assert!((1..self.n_aps).contains(&slave));
        320 + (slave - 1) * preamble::LTF_LEN
    }

    /// Offset where the interleaved rounds begin.
    fn rounds_offset(&self) -> usize {
        320 + (self.n_aps - 1) * preamble::LTF_LEN
    }

    /// Offset of AP `ap`'s channel-estimation symbol in `round`
    /// (80 samples per slot).
    fn slot_offset(&self, params: &OfdmParams, round: usize, ap: usize) -> usize {
        debug_assert!(round < self.rounds && ap < self.n_aps);
        let slot = match self.order {
            SlotOrder::Interleaved => round * self.n_aps + ap,
            SlotOrder::Sequential => ap * self.rounds + round,
        };
        self.rounds_offset() + slot * params.symbol_len()
    }

    /// Total packet length in samples.
    pub(crate) fn total_len(&self, params: &OfdmParams) -> usize {
        self.rounds_offset() + self.rounds * self.n_aps * params.symbol_len()
    }

    /// The waveform segments AP `ap` transmits, as `(offset, samples)`
    /// pairs relative to the packet start.
    pub(crate) fn ap_segments(
        &self,
        params: &OfdmParams,
        ap: usize,
    ) -> Vec<(usize, Vec<Complex64>)> {
        let mut segs = Vec::new();
        if ap == 0 {
            segs.push((0, preamble::preamble(params)));
        } else {
            segs.push((self.cfo_field_offset(ap), preamble::ltf(params)));
        }
        let sym = chanest_symbol(params);
        for r in 0..self.rounds {
            segs.push((self.slot_offset(params, r, ap), sym.clone()));
        }
        segs
    }
}

/// The channel-estimation symbol every AP repeats in its slots: the LTF
/// sequence as one CP-prefixed OFDM symbol.
pub(crate) fn chanest_symbol(params: &OfdmParams) -> Vec<Complex64> {
    let bins = preamble::ltf_bins(params);
    let mut body = bins;
    fft::ifft_in_place(&mut body);
    let mut out = Vec::with_capacity(params.symbol_len());
    out.extend_from_slice(&body[params.fft_size - params.cp_len..]);
    out.extend_from_slice(&body);
    out
}

/// 1σ accuracy (Hz) of the CFO seed a slave takes from a measurement packet
/// of `rounds` rounds over `n_aps` APs: the multi-slot refinement is
/// phase-limited by the span of the rounds section (≈ 0.02 rad of phase
/// noise over it) — ~12 Hz for the default 2-AP packet, better as packets
/// grow, never trusted below 10 Hz. Both fidelities seed with it.
pub(crate) fn seed_cfo_sigma_hz(params: &OfdmParams, rounds: usize, n_aps: usize) -> f64 {
    let span_s = (rounds * n_aps) as f64 * params.symbol_len() as f64 * params.sample_period();
    (0.02 / (2.0 * std::f64::consts::PI * span_s)).max(10.0)
}

/// What a client learns from one measurement packet.
#[derive(Debug, Clone)]
pub struct ClientMeasurement {
    /// Per-AP channel estimates, all referred to the reference time `t₀`.
    pub per_ap: Vec<ChannelEstimate>,
    /// Per-AP CFO estimates relative to this client, Hz.
    pub cfo_per_ap: Vec<f64>,
    /// Noise variance per frequency bin, estimated from the lead LTF.
    pub noise_var: f64,
}

/// Client-side processing of a measurement packet (§5.1b).
///
/// `window` must start exactly at the packet start (symbol-level timing is
/// assumed from \[30\], as in the paper) and cover `plan.total_len()` samples.
pub(crate) fn client_estimate(
    params: &OfdmParams,
    plan: &MeasurementPlan,
    window: &[Complex64],
) -> Result<ClientMeasurement, JmbError> {
    if window.len() < plan.total_len(params) {
        return Err(JmbError::MeasurementShape {
            expected: plan.total_len(params),
            got: window.len(),
        });
    }
    let sym_len = params.symbol_len();
    let round_stride = match plan.order {
        SlotOrder::Interleaved => plan.n_aps * sym_len,
        SlotOrder::Sequential => sym_len,
    };

    // --- Coarse per-AP CFO.
    let mut cfo = Vec::with_capacity(plan.n_aps);
    // Lead: coarse from STF + fine from LTF.
    {
        let coarse = sync::coarse_cfo(params, &window[16..160]);
        let mut ltf = window[160 + 32..320].to_vec();
        sync::correct_cfo(params, &mut ltf, coarse, 0.0);
        let fine = sync::fine_cfo(params, &ltf);
        cfo.push(coarse + fine);
    }
    // Slaves: fine CFO from their LTF field (range ±1/(2·64·Ts) ≈ ±78 kHz
    // at 10 MHz — covers any sane crystal).
    for s in 1..plan.n_aps {
        let off = plan.cfo_field_offset(s);
        let region = &window[off + 32..off + preamble::LTF_LEN];
        cfo.push(sync::fine_cfo(params, region));
    }

    // --- Per-round channel estimates and CFO refinement, two passes.
    let plan_fft = fft::plan(params.fft_size);
    let occupied = params.occupied_subcarriers();
    let l = preamble::ltf_freq();

    let estimate_slot = |offset: usize, cfo_hz: f64| -> Vec<Complex64> {
        // De-rotate the slot with phase anchored at the reference time —
        // the lead LTF midpoint (sample 240), the same anchor
        // `slave_header_measurement` uses for the slaves' reference
        // channels. Clients and slaves referring their measurements to the
        // *same* instant is what makes the slave corrections cancel the
        // per-AP oscillator terms exactly (§5.1: "all these channels have
        // to be measured at the same time").
        let mut sym = window[offset..offset + sym_len].to_vec();
        let phase0 = -2.0
            * std::f64::consts::PI
            * cfo_hz
            * (offset as f64 - REF_ANCHOR)
            * params.sample_period();
        sync::correct_cfo(params, &mut sym, cfo_hz, phase0);
        let mut bins = sym[params.cp_len..].to_vec();
        plan_fft.forward(&mut bins);
        occupied
            .iter()
            .map(|&k| bins[params.bin(k)].scale(l[(k + 26) as usize]))
            .collect()
    };

    // Pass 1: estimate with coarse CFO, refine CFO from inter-round drift.
    let mut refined_cfo = cfo.clone();
    for ap in 0..plan.n_aps {
        if plan.rounds < 2 {
            break;
        }
        let mut drift = Complex64::ZERO;
        let mut prev: Option<Vec<Complex64>> = None;
        for r in 0..plan.rounds {
            let est = estimate_slot(plan.slot_offset(params, r, ap), cfo[ap]);
            if let Some(p) = prev {
                for (a, b) in est.iter().zip(&p) {
                    drift += *a * b.conj();
                }
            }
            prev = Some(est);
        }
        // Residual rotation per round ⇒ CFO correction.
        let dt = round_stride as f64 * params.sample_period();
        let residual = drift.arg() / (2.0 * std::f64::consts::PI * dt);
        refined_cfo[ap] = cfo[ap] + residual;
    }

    // Pass 2: estimate with refined CFO and average across rounds.
    let mut per_ap = Vec::with_capacity(plan.n_aps);
    for (ap, &ap_cfo) in refined_cfo.iter().enumerate().take(plan.n_aps) {
        let mut acc = vec![Complex64::ZERO; occupied.len()];
        for r in 0..plan.rounds {
            let est = estimate_slot(plan.slot_offset(params, r, ap), ap_cfo);
            for (a, e) in acc.iter_mut().zip(&est) {
                *a += *e;
            }
        }
        let gains = acc.into_iter().map(|g| g / plan.rounds as f64).collect();
        per_ap.push(ChannelEstimate {
            subcarriers: occupied.clone(),
            gains,
        });
    }

    let noise_var = jmb_phy::frame::noise_from_ltf(params, &window[160..320]);
    Ok(ClientMeasurement {
        per_ap,
        cfo_per_ap: refined_cfo,
        noise_var,
    })
}

/// Slave-side processing of a lead sync header (used both for the reference
/// measurement in the channel-measurement phase and before every joint
/// transmission, §5.2b).
///
/// `window` must start at the header (STF) and cover ≥ 320 samples. Returns
/// the lead channel estimate (phase anchored at the LTF midpoint so that
/// the ratio of two such estimates is exactly the accumulated oscillator
/// rotation between the two headers) and the estimated lead-minus-slave CFO.
pub(crate) fn slave_header_measurement(
    params: &OfdmParams,
    window: &[Complex64],
) -> Result<(ChannelEstimate, f64), JmbError> {
    if window.len() < 320 {
        return Err(JmbError::MeasurementShape {
            expected: 320,
            got: window.len(),
        });
    }
    let coarse = sync::coarse_cfo(params, &window[16..160]);
    let mut work = window[160..320].to_vec();
    sync::correct_cfo(params, &mut work, coarse, 0.0);
    let fine = sync::fine_cfo(params, &work[32..]);
    let cfo = coarse + fine;
    // Single-pass correction of the LTF field with the total CFO, with the
    // accumulated phase anchored to zero at the LTF midpoint (80 samples
    // into the field): CFO-estimate error then perturbs the *slope* of the
    // de-rotation, not its value at the instant the channel is deemed
    // measured. `correct_cfo` applies e^{j(phase0 − 2πf·n·Ts)}.
    let anchor = 80.0;
    let mut full = window[160..320].to_vec();
    let phase0 = 2.0 * std::f64::consts::PI * cfo * anchor * params.sample_period();
    sync::correct_cfo(params, &mut full, cfo, phase0);
    let est = jmb_phy::chanest::estimate_from_ltf(params, &full);
    Ok((est, cfo))
}

/// Relative misalignment between two phase observations (radians, wrapped):
/// helper used by the Fig. 7 probe.
pub(crate) fn misalignment(observed: Complex64, reference: Complex64) -> f64 {
    wrap_phase((observed * reference.conj()).arg())
}

#[cfg(test)]
mod tests {
    use super::*;
    use jmb_phy::params::ChannelProfile;

    fn params() -> OfdmParams {
        OfdmParams::new(ChannelProfile::Usrp10MHz)
    }

    #[test]
    fn plan_layout_non_overlapping() {
        let p = params();
        let plan = MeasurementPlan::with_order(4, 3, SlotOrder::Interleaved);
        // Collect all segments of all APs and check for overlap.
        let mut spans: Vec<(usize, usize)> = Vec::new();
        for ap in 0..4 {
            for (off, seg) in plan.ap_segments(&p, ap) {
                spans.push((off, off + seg.len()));
            }
        }
        spans.sort_unstable();
        for w in spans.windows(2) {
            assert!(w[0].1 <= w[1].0, "overlap: {:?} then {:?}", w[0], w[1]);
        }
        let last = spans.last().unwrap().1;
        assert_eq!(last, plan.total_len(&p));
    }

    #[test]
    fn plan_offsets() {
        let p = params();
        let plan = MeasurementPlan::with_order(3, 2, SlotOrder::Interleaved);
        assert_eq!(plan.cfo_field_offset(1), 320);
        assert_eq!(plan.cfo_field_offset(2), 480);
        assert_eq!(plan.rounds_offset(), 640);
        assert_eq!(plan.slot_offset(&p, 0, 0), 640);
        assert_eq!(plan.slot_offset(&p, 0, 2), 640 + 160);
        assert_eq!(plan.slot_offset(&p, 1, 0), 640 + 240);
        assert_eq!(plan.total_len(&p), 640 + 2 * 3 * 80);
    }

    #[test]
    fn chanest_symbol_is_cp_plus_ltf_body() {
        let p = params();
        let sym = chanest_symbol(&p);
        assert_eq!(sym.len(), 80);
        // CP = last 16 of body.
        for i in 0..16 {
            assert!((sym[i] - sym[64 + i]).abs() < 1e-12);
        }
        // Body equals the LTF symbol.
        let ltf_sym = preamble::ltf_symbol(&p);
        for i in 0..64 {
            assert!((sym[16 + i] - ltf_sym[i]).abs() < 1e-12);
        }
    }

    /// Builds the composite measurement packet as heard through ideal
    /// channels with per-AP CFOs applied.
    fn composite_window(
        p: &OfdmParams,
        plan: &MeasurementPlan,
        cfos: &[f64],
        gains: &[Complex64],
    ) -> Vec<Complex64> {
        let mut window = vec![Complex64::ZERO; plan.total_len(p)];
        let ts = p.sample_period();
        for ap in 0..plan.n_aps {
            for (off, seg) in plan.ap_segments(p, ap) {
                for (n, &x) in seg.iter().enumerate() {
                    let t = (off + n) as f64 * ts;
                    let rot = Complex64::cis(2.0 * std::f64::consts::PI * cfos[ap] * t);
                    window[off + n] += x * rot * gains[ap];
                }
            }
        }
        window
    }

    #[test]
    fn client_estimate_recovers_gains_and_cfos() {
        let p = params();
        let plan = MeasurementPlan::with_order(3, 4, SlotOrder::Interleaved);
        let cfos = [500.0, -1200.0, 2500.0];
        let gains = [
            Complex64::from_polar(1.0, 0.3),
            Complex64::from_polar(0.7, -1.0),
            Complex64::from_polar(1.2, 2.0),
        ];
        let window = composite_window(&p, &plan, &cfos, &gains);
        let m = client_estimate(&p, &plan, &window).unwrap();
        assert_eq!(m.per_ap.len(), 3);
        for ap in 0..3 {
            assert!(
                (m.cfo_per_ap[ap] - cfos[ap]).abs() < 10.0,
                "ap {ap}: cfo {} vs {}",
                m.cfo_per_ap[ap],
                cfos[ap]
            );
            // Channel estimates referred to the anchor (sample 240): the
            // synthetic CFO rotation leaves exactly its value at the anchor.
            let anchor_rot = Complex64::cis(
                2.0 * std::f64::consts::PI * cfos[ap] * REF_ANCHOR * p.sample_period(),
            );
            let want = gains[ap] * anchor_rot;
            for (&k, g) in m.per_ap[ap].subcarriers.iter().zip(&m.per_ap[ap].gains) {
                assert!((*g - want).abs() < 0.05, "ap {ap} k={k}: {g} vs {want}");
            }
        }
    }

    #[test]
    fn client_estimate_rejects_short_window() {
        let p = params();
        let plan = MeasurementPlan::with_order(2, 2, SlotOrder::Interleaved);
        let window = vec![Complex64::ZERO; 100];
        assert!(matches!(
            client_estimate(&p, &plan, &window),
            Err(JmbError::MeasurementShape { .. })
        ));
    }

    #[test]
    fn slave_header_measurement_estimates_cfo_and_channel() {
        let p = params();
        let cfo = 3_456.0;
        let gain = Complex64::from_polar(0.8, 1.1);
        let ts = p.sample_period();
        let window: Vec<Complex64> = preamble::preamble(&p)
            .iter()
            .enumerate()
            .map(|(n, &x)| {
                x * gain * Complex64::cis(2.0 * std::f64::consts::PI * cfo * n as f64 * ts)
            })
            .collect();
        let (est, cfo_hat) = slave_header_measurement(&p, &window).unwrap();
        assert!((cfo_hat - cfo).abs() < 10.0, "cfo {cfo_hat}");
        // Magnitudes match the gain.
        for g in &est.gains {
            assert!((g.abs() - 0.8).abs() < 0.01);
        }
    }

    #[test]
    fn two_headers_ratio_gives_rotation() {
        // The property phase sync depends on: measuring two headers Δt apart
        // yields estimates whose ratio is e^{j2πf·Δt}.
        let p = params();
        let cfo = 777.0;
        let ts = p.sample_period();
        let make_window = |t_start: f64| -> Vec<Complex64> {
            preamble::preamble(&p)
                .iter()
                .enumerate()
                .map(|(n, &x)| {
                    let t = t_start + n as f64 * ts;
                    x * Complex64::cis(2.0 * std::f64::consts::PI * cfo * t)
                })
                .collect()
        };
        let dt = 7.3e-3; // 7.3 ms between headers
        let (e1, _) = slave_header_measurement(&p, &make_window(0.0)).unwrap();
        let (e2, _) = slave_header_measurement(&p, &make_window(dt)).unwrap();
        let expected = wrap_phase(2.0 * std::f64::consts::PI * cfo * dt);
        // Average ratio phase across subcarriers.
        let mut acc = Complex64::ZERO;
        for (a, b) in e2.gains.iter().zip(&e1.gains) {
            acc += *a * b.conj();
        }
        let got = acc.arg();
        assert!(
            (wrap_phase(got - expected)).abs() < 0.02,
            "rotation {got} vs {expected}"
        );
    }

    #[test]
    fn misalignment_helper() {
        let a = Complex64::cis(0.5);
        let b = Complex64::cis(0.3);
        assert!((misalignment(a, b) - 0.2).abs() < 1e-12);
        assert!((misalignment(b, a) + 0.2).abs() < 1e-12);
    }

    #[test]
    #[should_panic(expected = "at least one")]
    fn zero_ap_plan_rejected() {
        MeasurementPlan::with_order(0, 1, SlotOrder::Interleaved);
    }
}
