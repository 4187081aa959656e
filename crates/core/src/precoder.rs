//! Joint beamforming precoders.
//!
//! The multiplexing precoder is zero-forcing: with the joint per-subcarrier
//! channel `H(k)` (rows = clients, columns = AP antennas) the APs transmit
//! `s(k) = k̂·H(k)⁻¹·x(k)` (paper Eq. 2, §9), so every client sees a clean,
//! interference-free copy of its own stream with signal amplitude `k̂`. The
//! scalar `k̂` enforces the per-AP power constraint (footnote 2) and is what
//! rate selection uses ("signal strength of k² at each client", §9).
//!
//! The diversity precoder (§8) is maximum-ratio transmission: every AP
//! transmits the *same* stream weighted by `h*/‖h‖`, adding coherently at
//! the single client for an up-to-`N²` SNR gain.

use crate::error::JmbError;
use jmb_dsp::{CMat, Complex64, ZfSolver};

/// A per-subcarrier joint precoder.
#[derive(Debug, Clone, Default)]
pub struct Precoder {
    /// Per-subcarrier weights, `W(k)`: `n_tx × n_streams`.
    weights: Vec<CMat>,
    /// Per-subcarrier power normalisation `k̂(k)` (§9 speaks of "the signal
    /// strength, k², in each subcarrier": normalisation is per subcarrier,
    /// so an ill-conditioned subcarrier costs only itself — the effective-
    /// SNR rate selection then averages the damage in BER domain instead of
    /// the whole band paying the worst subcarrier's inversion penalty).
    k_hats: Vec<f64>,
    n_tx: usize,
    n_streams: usize,
}

impl Precoder {
    /// Builds the zero-forcing precoder from per-subcarrier channel
    /// matrices (`n_streams × n_tx` each, rows = clients).
    ///
    /// `W(k) = H(k)⁺`, scaled per subcarrier by `k̂(k)` so that the busiest
    /// AP antenna's transmit power on that subcarrier equals the unit
    /// per-AP budget — the paper's per-AP maximum-power constraint
    /// (footnote 2). Every AP may radiate up to the same power it would use
    /// transmitting alone, which is what makes throughput scale linearly
    /// with added APs: each new AP brings its own power budget.
    pub fn zero_forcing(h_per_subcarrier: &[CMat]) -> Result<Precoder, JmbError> {
        let mut precoder = Precoder::default();
        precoder.rebuild_zero_forcing(h_per_subcarrier)?;
        Ok(precoder)
    }

    /// [`Precoder::zero_forcing`] into this precoder's storage: a network
    /// that builds one per batch keeps the weight matrices between batches.
    /// After an error the contents are unspecified until the next rebuild.
    pub(crate) fn rebuild_zero_forcing(
        &mut self,
        h_per_subcarrier: &[CMat],
    ) -> Result<(), JmbError> {
        let _span = jmb_obs::span("zf_precoder");
        if h_per_subcarrier.is_empty() {
            return Err(JmbError::BadConfig("no subcarriers"));
        }
        let n_streams = h_per_subcarrier[0].rows();
        let n_tx = h_per_subcarrier[0].cols();
        if n_streams == 0 || n_tx == 0 {
            return Err(JmbError::BadConfig("empty channel matrix"));
        }
        if n_tx < n_streams {
            return Err(JmbError::BadConfig("fewer total AP antennas than streams"));
        }
        let Precoder {
            weights, k_hats, ..
        } = self;
        weights.resize_with(h_per_subcarrier.len(), CMat::default);
        k_hats.clear();
        // One Gram+Cholesky solver reused across subcarriers: the per-loop
        // temporaries (Gram matrix, substitution scratch) are allocated once.
        let mut solver = ZfSolver::new(n_streams, n_tx);
        let mut col_gain = vec![0.0f64; n_streams];
        for (h, w) in h_per_subcarrier.iter().zip(weights.iter_mut()) {
            if h.rows() != n_streams || h.cols() != n_tx {
                return Err(JmbError::MeasurementShape {
                    expected: n_streams * n_tx,
                    got: h.rows() * h.cols(),
                });
            }
            w.reset(n_tx, n_streams);
            solver.pinv_into(h, w)?;
            // Per-stream power normalisation: every stream's precoding
            // column is scaled to unit power on each subcarrier, so client
            // j's received amplitude tracks the quality of its own channel
            // (`g_j(k) = 1/‖W col_j(k)‖`), exactly like ordinary fading its
            // receiver already equalises. Normalising the whole subcarrier
            // to a common `k·I` would instead force full amplitude through
            // *faded* directions — one AP's faded diagonal would blow up
            // the weights and drag every client on that subcarrier.
            for (j, g) in col_gain.iter_mut().enumerate() {
                // Column power read from the solver's contiguous scratch
                // (same ascending-antenna summation order as scanning the
                // strided column of `w`, so the gains are bit-identical).
                let p = solver.col_power(j);
                if p <= 0.0 || !p.is_finite() {
                    return Err(JmbError::Precoding(jmb_dsp::matrix::MatError::Singular));
                }
                *g = 1.0 / p.sqrt();
            }
            for m in 0..n_tx {
                for j in 0..n_streams {
                    w[(m, j)] = w[(m, j)] * col_gain[j];
                }
            }
            // Summary normalisation for this subcarrier: RMS of the
            // per-stream received amplitudes.
            let rms = (col_gain.iter().map(|g| g * g).sum::<f64>() / n_streams as f64).sqrt();
            k_hats.push(rms);
        }
        // Global pass: enforce the per-AP maximum-power constraint
        // (footnote 2) on each antenna's power *summed over the symbol*:
        // the busiest antenna's mean (across subcarriers) power is pinned
        // to the unit budget. Instantaneous per-subcarrier overshoot is a
        // PAPR-like effect absorbed by amplifier backoff.
        let n_k = weights.len() as f64;
        let mut busiest = 0.0f64;
        for m in 0..n_tx {
            let p: f64 = weights
                .iter()
                .map(|w| (0..n_streams).map(|j| w[(m, j)].norm_sqr()).sum::<f64>())
                .sum::<f64>()
                / n_k;
            busiest = busiest.max(p);
        }
        if busiest <= 0.0 || !busiest.is_finite() {
            return Err(JmbError::Precoding(jmb_dsp::matrix::MatError::Singular));
        }
        let gamma = (1.0 / busiest).sqrt();
        for (w, k) in weights.iter_mut().zip(k_hats.iter_mut()) {
            w.scale_in_place(Complex64::real(gamma));
            *k *= gamma;
        }
        self.n_tx = n_tx;
        self.n_streams = n_streams;
        Ok(())
    }

    /// The received signal amplitude of stream `j` on subcarrier `k_idx`
    /// under this precoder and the channel it was built from:
    /// `g_j(k) = [H·W]_{jj}`. Returns the diagonal entry magnitude given
    /// the stored weights applied to `h`.
    pub fn stream_gain(&self, k_idx: usize, h: &CMat, stream: usize) -> f64 {
        let g = self.effective_channel(k_idx, h);
        g[(stream, stream)].abs()
    }

    /// Builds the MRT diversity precoder from the per-subcarrier channel
    /// *vector* to a single client (`1 × n_tx` matrices or a vec of rows).
    ///
    /// Weight for antenna m: `h_m*/‖h‖`, scaled so the per-antenna unit
    /// power budget is respected (the limiting antenna is the strongest
    /// one).
    pub fn mrt(h_rows: &[Vec<Complex64>]) -> Result<Precoder, JmbError> {
        if h_rows.is_empty() || h_rows[0].is_empty() {
            return Err(JmbError::BadConfig("empty diversity channel"));
        }
        let n_tx = h_rows[0].len();
        let mut weights = Vec::with_capacity(h_rows.len());
        for row in h_rows {
            if row.len() != n_tx {
                return Err(JmbError::MeasurementShape {
                    expected: n_tx,
                    got: row.len(),
                });
            }
            let norm = row.iter().map(|h| h.norm_sqr()).sum::<f64>().sqrt();
            let mut w = CMat::zeros(n_tx, 1);
            if norm > 0.0 {
                for (m, h) in row.iter().enumerate() {
                    w[(m, 0)] = h.conj() / norm;
                }
            }
            weights.push(w);
        }
        // Normalise each subcarrier to the per-antenna budget.
        let mut k_hats = Vec::with_capacity(weights.len());
        for w in weights.iter_mut() {
            let mut worst = 0.0f64;
            for m in 0..n_tx {
                worst = worst.max(w[(m, 0)].norm_sqr());
            }
            if worst <= 0.0 {
                return Err(JmbError::Precoding(jmb_dsp::matrix::MatError::Singular));
            }
            let k_hat = (1.0 / worst).sqrt();
            w.scale_in_place(Complex64::real(k_hat));
            k_hats.push(k_hat);
        }
        Ok(Precoder {
            weights,
            k_hats,
            n_tx,
            n_streams: 1,
        })
    }

    /// Number of transmit antennas.
    pub fn n_tx(&self) -> usize {
        self.n_tx
    }

    /// Number of spatial streams.
    pub fn n_streams(&self) -> usize {
        self.n_streams
    }

    /// The per-subcarrier normalisations `k̂(k)` of §9's `k²/N`
    /// rate-selection rule: the RMS (across streams) received signal
    /// amplitude on each subcarrier — under zero-forcing with per-stream
    /// power normalisation the effective channel is diagonal with
    /// per-stream gains whose RMS this summarises.
    pub fn k_hats(&self) -> &[f64] {
        &self.k_hats
    }

    /// Root-mean-square `k̂` across subcarriers (a scalar summary: the
    /// average received signal power is `k_hat()²`).
    pub fn k_hat(&self) -> f64 {
        (self.k_hats.iter().map(|k| k * k).sum::<f64>() / self.k_hats.len() as f64).sqrt()
    }

    /// The weight matrix at subcarrier index `k_idx`.
    pub fn weights_at(&self, k_idx: usize) -> &CMat {
        &self.weights[k_idx]
    }

    /// Applies the precoder at one subcarrier: stream vector `x` →
    /// per-antenna transmit vector `W(k)·x`.
    ///
    /// # Panics
    ///
    /// Panics if `x.len() != n_streams`.
    pub fn apply(&self, k_idx: usize, x: &[Complex64]) -> Vec<Complex64> {
        // jmb-allow(no-panic-hot-path): documented precondition (# Panics) — stream count is part of the API contract
        assert_eq!(x.len(), self.n_streams, "stream vector length");
        self.weights[k_idx]
            .mul_vec(x)
            // jmb-allow(no-panic-hot-path): weights[k] is n_tx x n_streams by construction and x.len() was just asserted — mul_vec cannot fail
            .expect("dimensions fixed at construction")
    }

    /// The effective channel `H(k)·W(k)` a set of clients would see.
    pub fn effective_channel(&self, k_idx: usize, h: &CMat) -> CMat {
        h.mul_mat(&self.weights[k_idx])
            // jmb-allow(no-panic-hot-path): caller contract — h spans the same antennas that built this precoder; mul_mat only errors on shape mismatch
            .expect("dimensions fixed at construction")
    }

    /// Mean transmit power of antenna `m`, averaged over subcarriers,
    /// assuming unit-power streams.
    pub fn antenna_power(&self, m: usize) -> f64 {
        self.weights
            .iter()
            .map(|w| {
                (0..self.n_streams)
                    .map(|j| w[(m, j)].norm_sqr())
                    .sum::<f64>()
            })
            .sum::<f64>()
            / self.weights.len() as f64
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use jmb_dsp::rng::{complex_gaussian, rng_from_seed};

    fn random_h(rows: usize, cols: usize, seed: u64) -> CMat {
        let mut rng = rng_from_seed(seed);
        let data = (0..rows * cols)
            .map(|_| complex_gaussian(&mut rng, 1.0))
            .collect();
        CMat::from_vec(rows, cols, data)
    }

    #[test]
    fn zf_diagonalises_square_channel() {
        let hs: Vec<CMat> = (0..8).map(|k| random_h(3, 3, 100 + k)).collect();
        let p = Precoder::zero_forcing(&hs).unwrap();
        for (k, h) in hs.iter().enumerate() {
            let eff = p.effective_channel(k, h);
            assert!(eff.is_diagonal(1e-9), "subcarrier {k} not diagonal");
            // Diagonal entries are real positive per-stream gains whose RMS
            // (up to the global power pass) is this subcarrier's k̂ summary.
            let mut sq = 0.0;
            for j in 0..3 {
                let g = eff[(j, j)];
                assert!(g.re > 0.0 && g.im.abs() < 1e-9, "({j},{j}) = {g}");
                sq += g.re * g.re;
                assert!((p.stream_gain(k, h, j) - g.re).abs() < 1e-12);
            }
            let rms = (sq / 3.0).sqrt();
            assert!(
                (rms - p.k_hats()[k]).abs() < 1e-9,
                "rms {rms} vs {}",
                p.k_hats()[k]
            );
        }
    }

    #[test]
    fn zf_with_more_antennas_than_streams() {
        // 2 clients, 4 antennas (the 802.11n scenario): right pseudo-inverse.
        let hs: Vec<CMat> = (0..4).map(|k| random_h(2, 4, 7 + k)).collect();
        let p = Precoder::zero_forcing(&hs).unwrap();
        assert_eq!(p.n_tx(), 4);
        assert_eq!(p.n_streams(), 2);
        for (k, h) in hs.iter().enumerate() {
            assert!(p.effective_channel(k, h).is_diagonal(1e-9), "k={k}");
        }
    }

    #[test]
    fn per_antenna_power_within_budget() {
        let hs: Vec<CMat> = (0..16).map(|k| random_h(4, 4, 50 + k)).collect();
        let p = Precoder::zero_forcing(&hs).unwrap();
        let budget = 1.0; // per-AP unit power (the paper's constraint)
                          // The constraint is per antenna over the whole symbol: every
                          // antenna's mean (across subcarriers) power is within budget and
                          // the busiest antenna sits exactly at it. Per-subcarrier overshoot
                          // is a PAPR-like effect absorbed by amplifier backoff.
        let mut worst: f64 = 0.0;
        for m in 0..4 {
            let pw = p.antenna_power(m);
            assert!(pw <= budget + 1e-9, "antenna {m} power {pw}");
            worst = worst.max(pw);
        }
        assert!((worst - budget).abs() < 1e-9, "busiest {worst}");
    }

    #[test]
    fn k_hat_shrinks_with_ill_conditioning() {
        // A nearly-singular channel should force a smaller k̂ (the paper's
        // "K depends on the channel matrix H and … how well conditioned it
        // is", §11.2).
        let good = vec![CMat::identity(2)];
        let mut bad_h = CMat::identity(2);
        bad_h[(1, 1)] = Complex64::new(0.05, 0.0); // condition number 20
        let bad = vec![bad_h];
        let p_good = Precoder::zero_forcing(&good).unwrap();
        let p_bad = Precoder::zero_forcing(&bad).unwrap();
        // Per-stream normalisation confines the damage to the weak stream:
        // the summary k̂ shrinks (rms of {1, 0.05} ≈ 0.71) without the
        // strong stream paying for the weak one.
        assert!(
            p_bad.k_hat() < p_good.k_hat() * 0.8,
            "bad {} good {}",
            p_bad.k_hat(),
            p_good.k_hat()
        );
        let good_h = CMat::identity(2);
        let mut bad_h = CMat::identity(2);
        bad_h[(1, 1)] = Complex64::new(0.05, 0.0);
        assert!((p_bad.stream_gain(0, &bad_h, 0) - p_good.stream_gain(0, &good_h, 0)).abs() < 1e-9);
        assert!(p_bad.stream_gain(0, &bad_h, 1) < 0.1);
    }

    #[test]
    fn apply_matches_weights() {
        let hs: Vec<CMat> = (0..2).map(|k| random_h(2, 3, 11 + k)).collect();
        let p = Precoder::zero_forcing(&hs).unwrap();
        let x = vec![Complex64::new(1.0, 0.5), Complex64::new(-0.3, 0.2)];
        let tx = p.apply(0, &x);
        assert_eq!(tx.len(), 3);
        let manual = p.weights_at(0).mul_vec(&x).unwrap();
        for (a, b) in tx.iter().zip(&manual) {
            assert_eq!(a, b);
        }
    }

    #[test]
    fn singular_channel_rejected() {
        let mut h = CMat::zeros(2, 2);
        h[(0, 0)] = Complex64::ONE;
        h[(0, 1)] = Complex64::ONE;
        h[(1, 0)] = Complex64::ONE;
        h[(1, 1)] = Complex64::ONE;
        assert!(matches!(
            Precoder::zero_forcing(&[h]),
            Err(JmbError::Precoding(_))
        ));
    }

    #[test]
    fn underdetermined_rejected() {
        let h = random_h(3, 2, 1);
        assert!(matches!(
            Precoder::zero_forcing(&[h]),
            Err(JmbError::BadConfig(_))
        ));
        assert!(matches!(
            Precoder::zero_forcing(&[]),
            Err(JmbError::BadConfig(_))
        ));
    }

    #[test]
    fn shape_mismatch_between_subcarriers() {
        let hs = vec![random_h(2, 2, 1), random_h(2, 3, 2)];
        assert!(matches!(
            Precoder::zero_forcing(&hs),
            Err(JmbError::MeasurementShape { .. })
        ));
    }

    #[test]
    fn mrt_combines_coherently() {
        // With N unit-magnitude random-phase channels, MRT delivers
        // amplitude k̂·‖h‖ = k̂·√N — the coherent N² power gain over a
        // single AP at 1/N the per-antenna power (§8, §11.4).
        let n = 8;
        let mut rng = rng_from_seed(3);
        let rows: Vec<Vec<Complex64>> = (0..4)
            .map(|_| {
                (0..n)
                    .map(|_| jmb_dsp::rng::random_phasor(&mut rng))
                    .collect()
            })
            .collect();
        let p = Precoder::mrt(&rows).unwrap();
        for (k, row) in rows.iter().enumerate() {
            let w = p.weights_at(k);
            let mut received = Complex64::ZERO;
            for (m, h) in row.iter().enumerate() {
                received += *h * w[(m, 0)];
            }
            // h·w = k̂·‖h‖ = k̂·√N, real positive.
            assert!(received.im.abs() < 1e-12);
            assert!(
                (received.re - p.k_hat() * (n as f64).sqrt()).abs() < 1e-9,
                "k={k}: {received}"
            );
        }
        // For equal-magnitude channels every antenna's weight magnitude is
        // 1/√N, so the unit per-antenna budget gives k̂ = √N and received
        // amplitude k̂·√N = N: received power N² — the paper's coherent
        // diversity gain over one AP at the same per-antenna power (§11.4).
        assert!(
            (p.k_hat() - (n as f64).sqrt()).abs() < 1e-9,
            "k_hat {}",
            p.k_hat()
        );
    }

    #[test]
    fn mrt_respects_per_antenna_budget() {
        let mut rng = rng_from_seed(4);
        let rows: Vec<Vec<Complex64>> = (0..8)
            .map(|_| (0..5).map(|_| complex_gaussian(&mut rng, 1.0)).collect())
            .collect();
        let p = Precoder::mrt(&rows).unwrap();
        for m in 0..5 {
            assert!(p.antenna_power(m) <= 1.0 + 1e-12, "antenna {m}");
        }
    }

    #[test]
    fn mrt_empty_rejected() {
        assert!(Precoder::mrt(&[]).is_err());
        assert!(Precoder::mrt(&[vec![]]).is_err());
    }
}
