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

use crate::error::JmbError;
use jmb_dsp::matrix::{Lanes, MatError, Planar};
use jmb_dsp::{CMat, Complex64, ZfSolver};

/// A per-subcarrier joint precoder.
#[derive(Debug, Clone, Default)]
pub struct Precoder {
    /// The weights `W(k)` (`n_tx × n_streams` per subcarrier), planar: entry
    /// `(tx, stream)` in row `tx · n_streams + stream`, one lane per
    /// subcarrier — the layout the probe kernel multiplies in.
    weights: Planar,
    /// Per-subcarrier power normalisation `k̂(k)` (§9 speaks of "the signal
    /// strength, k², in each subcarrier": normalisation is per subcarrier,
    /// so an ill-conditioned subcarrier costs only itself — the effective-
    /// SNR rate selection then averages the damage in BER domain instead of
    /// the whole band paying the worst subcarrier's inversion penalty).
    k_hats: Vec<f64>,
    n_tx: usize,
    n_streams: usize,
}

/// What a zero-forcing build works in: the solver and one row of power
/// lanes. A network that builds precoders keeps one, so a build allocates
/// nothing once the buffers have grown to the largest shape; the solver is
/// reshaped, its storage kept, when the shape changes.
#[derive(Debug, Default)]
pub(crate) struct ZfWork {
    solver: Option<ZfSolver>,
    power: Vec<f64>,
}

/// The shape rules of a zero-forcing precoder: every stream needs an antenna.
fn zf_shape(n_streams: usize, n_tx: usize) -> Result<(), JmbError> {
    if n_streams == 0 || n_tx == 0 {
        return Err(JmbError::BadConfig("empty channel matrix"));
    }
    if n_tx < n_streams {
        return Err(JmbError::BadConfig("fewer total AP antennas than streams"));
    }
    Ok(())
}

impl Precoder {
    /// Builds the zero-forcing precoder from per-subcarrier channel
    /// matrices (`n_streams × n_tx` each, rows = clients): the constructor
    /// for a caller that holds one matrix per subcarrier; a network's
    /// precoders are solved from its measured channel's lanes
    /// ([`crate::network::ZfStore`]).
    ///
    /// `W(k) = H(k)⁺`, scaled per subcarrier by `k̂(k)` so that the busiest
    /// AP antenna's transmit power on that subcarrier equals the unit
    /// per-AP budget — the paper's per-AP maximum-power constraint
    /// (footnote 2). Every AP may radiate up to the same power it would use
    /// transmitting alone, which is what makes throughput scale linearly
    /// with added APs: each new AP brings its own power budget.
    ///
    /// Every matrix's shape is checked before any arithmetic: a band with a
    /// mismatched subcarrier is [`JmbError::MeasurementShape`] even if an
    /// earlier subcarrier is singular.
    pub(crate) fn zero_forcing(h_per_subcarrier: &[CMat]) -> Result<Precoder, JmbError> {
        let first = h_per_subcarrier
            .first()
            .ok_or(JmbError::BadConfig("no subcarriers"))?;
        let (n_streams, n_tx) = (first.rows(), first.cols());
        zf_shape(n_streams, n_tx)?;
        let entries = n_streams * n_tx;
        if let Some(h) = h_per_subcarrier
            .iter()
            .find(|h| h.rows() != n_streams || h.cols() != n_tx)
        {
            return Err(JmbError::MeasurementShape {
                expected: entries,
                got: h.rows() * h.cols(),
            });
        }
        let mut h = Planar::default();
        h.zeroed(entries, h_per_subcarrier.len());
        for (k_idx, matrix) in h_per_subcarrier.iter().enumerate() {
            for (row, &z) in matrix.as_slice().iter().enumerate() {
                h.set(row, k_idx, z);
            }
        }
        let mut precoder = Precoder::default();
        precoder.rebuild_zero_forcing(&h, n_streams, n_tx, &mut ZfWork::default())?;
        Ok(precoder)
    }

    /// [`Precoder::zero_forcing`] from the channel as lanes — entry
    /// `(stream, tx)` of `H` in row `stream · n_tx + tx`, one lane per
    /// subcarrier — into this precoder's own lanes: a network that builds
    /// one per batch keeps the storage between batches, and `work` with it.
    /// After an error the contents are unspecified until the next rebuild.
    ///
    /// Every stage runs across the subcarriers as lanes, each lane
    /// operation for operation the per-subcarrier build: the
    /// [`ZfSolver`] pseudo-inverse, then per stream its column power and
    /// gain, per subcarrier `k̂`, and the per-antenna power pass.
    pub(crate) fn rebuild_zero_forcing(
        &mut self,
        h: &Planar,
        n_streams: usize,
        n_tx: usize,
        work: &mut ZfWork,
    ) -> Result<(), JmbError> {
        let _span = jmb_obs::span("zf_precoder");
        let n_k = h.width();
        if n_k == 0 {
            return Err(JmbError::BadConfig("no subcarriers"));
        }
        zf_shape(n_streams, n_tx)?;
        let Precoder {
            weights, k_hats, ..
        } = self;
        let solver = work
            .solver
            .get_or_insert_with(|| ZfSolver::new(n_streams, n_tx));
        solver.reshape(n_streams, n_tx);
        solver.solve(h, weights)?;
        // Per-stream power normalisation: every stream's precoding column
        // is scaled to unit power on each subcarrier, so client j's
        // received amplitude tracks the quality of its own channel
        // (`g_j(k) = 1/‖W col_j(k)‖`), exactly like ordinary fading its
        // receiver already equalises. Normalising the whole subcarrier to a
        // common `k·I` would instead force full amplitude through *faded*
        // directions — one AP's faded diagonal would blow up the weights
        // and drag every client on that subcarrier.
        let power = &mut work.power;
        power.clear();
        power.resize(n_k, 0.0);
        k_hats.clear();
        k_hats.resize(n_k, 0.0);
        for j in 0..n_streams {
            // Column power in ascending-antenna order, then its gain.
            power.fill(0.0);
            for m in 0..n_tx {
                let (re, im) = weights.row(m * n_streams + j);
                for ((p, &re), &im) in power.iter_mut().zip(re).zip(im) {
                    *p += re * re + im * im;
                }
            }
            if power.iter().any(|&p| p <= 0.0 || !p.is_finite()) {
                return Err(JmbError::Precoding(MatError::Singular));
            }
            for g in power.iter_mut() {
                *g = 1.0 / g.sqrt();
            }
            for m in 0..n_tx {
                let (re, im) = weights.row_mut(m * n_streams + j);
                for ((re, im), &g) in re.iter_mut().zip(im).zip(power.iter()) {
                    *re *= g;
                    *im *= g;
                }
            }
            for (k, &g) in k_hats.iter_mut().zip(power.iter()) {
                *k += g * g;
            }
        }
        // Summary normalisation per subcarrier: RMS of the per-stream
        // received amplitudes.
        for k in k_hats.iter_mut() {
            *k = (*k / n_streams as f64).sqrt();
        }
        // Global pass: enforce the per-AP maximum-power constraint
        // (footnote 2) on each antenna's power *summed over the symbol*:
        // the busiest antenna's mean (across subcarriers) power is pinned
        // to the unit budget. Instantaneous per-subcarrier overshoot is a
        // PAPR-like effect absorbed by amplifier backoff.
        let mut busiest = 0.0f64;
        for m in 0..n_tx {
            power.fill(0.0);
            for j in 0..n_streams {
                let (re, im) = weights.row(m * n_streams + j);
                for ((p, &re), &im) in power.iter_mut().zip(re).zip(im) {
                    *p += re * re + im * im;
                }
            }
            busiest = busiest.max(power.iter().sum::<f64>() / n_k as f64);
        }
        if busiest <= 0.0 || !busiest.is_finite() {
            return Err(JmbError::Precoding(MatError::Singular));
        }
        let gamma = (1.0 / busiest).sqrt();
        scale_by_real(weights, gamma);
        for k in k_hats.iter_mut() {
            *k *= gamma;
        }
        self.n_tx = n_tx;
        self.n_streams = n_streams;
        Ok(())
    }

    /// The received signal amplitude of stream `j` on subcarrier `k_idx`
    /// under this precoder and the channel it was built from:
    /// `|g_j(k)| = |[H·W]_{jj}|`, from `h_row`, row `j` of `H(k)` (the
    /// stream's channel from each antenna in turn). The entry is summed as
    /// [`Precoder::effective_channel`] sums it.
    pub(crate) fn stream_gain(
        &self,
        k_idx: usize,
        h_row: impl IntoIterator<Item = Complex64>,
        stream: usize,
    ) -> f64 {
        let mut g = Complex64::ZERO;
        for (m, h) in h_row.into_iter().enumerate() {
            // `CMat::mul_into` skips a zero entry.
            if h != Complex64::ZERO {
                g = h.mul_add(self.weight(k_idx, m, stream), g);
            }
        }
        g.abs()
    }

    /// Builds the MRT diversity precoder from the channel to a single
    /// client: `rows` holds its `n_tx` rows of the measured channel back to
    /// back, one per antenna, each across the band's subcarrier lanes — what
    /// [`Planar::rows_from`] lends of a network's `H̃`.
    ///
    /// Weight for antenna m: `h_m*/‖h‖`, scaled so the per-antenna unit
    /// power budget is respected (the limiting antenna is the strongest
    /// one).
    pub(crate) fn mrt((re, im): Lanes<'_>, n_tx: usize) -> Result<Precoder, JmbError> {
        if n_tx == 0 || re.is_empty() {
            return Err(JmbError::BadConfig("empty diversity channel"));
        }
        let width = re.len() / n_tx;
        if width * n_tx != re.len() || im.len() != re.len() {
            return Err(JmbError::MeasurementShape {
                expected: width * n_tx,
                got: if im.len() != re.len() {
                    im.len()
                } else {
                    re.len()
                },
            });
        }
        let mut weights = Planar::default();
        weights.zeroed(n_tx, width);
        let mut k_hats = Vec::with_capacity(width);
        for k_idx in 0..width {
            let h = |m: usize| Complex64::new(re[m * width + k_idx], im[m * width + k_idx]);
            let norm = (0..n_tx).map(|m| h(m).norm_sqr()).sum::<f64>().sqrt();
            let w = |m: usize| match norm > 0.0 {
                true => h(m).conj() / norm,
                false => Complex64::ZERO,
            };
            // Normalise each subcarrier to the per-antenna budget.
            let worst = (0..n_tx).map(|m| w(m).norm_sqr()).fold(0.0, f64::max);
            if worst <= 0.0 {
                return Err(JmbError::Precoding(MatError::Singular));
            }
            let k_hat = (1.0 / worst).sqrt();
            for m in 0..n_tx {
                weights.set(m, k_idx, w(m) * Complex64::real(k_hat));
            }
            k_hats.push(k_hat);
        }
        Ok(Precoder {
            weights,
            k_hats,
            n_tx,
            n_streams: 1,
        })
    }

    /// Number of spatial streams.
    pub(crate) fn n_streams(&self) -> usize {
        self.n_streams
    }

    /// The per-subcarrier normalisations `k̂(k)` of §9's `k²/N`
    /// rate-selection rule: the RMS (across streams) received signal
    /// amplitude on each subcarrier — under zero-forcing with per-stream
    /// power normalisation the effective channel is diagonal with
    /// per-stream gains whose RMS this summarises.
    pub(crate) fn k_hats(&self) -> &[f64] {
        &self.k_hats
    }

    /// Root-mean-square `k̂` across subcarriers (a scalar summary: the
    /// average received signal power is `k_hat()²`).
    pub(crate) fn k_hat(&self) -> f64 {
        (self.k_hats.iter().map(|k| k * k).sum::<f64>() / self.k_hats.len() as f64).sqrt()
    }

    /// The weight of antenna `tx` for stream `stream` on subcarrier `k_idx`:
    /// entry `(tx, stream)` of `W(k)`.
    pub(crate) fn weight(&self, k_idx: usize, tx: usize, stream: usize) -> Complex64 {
        self.weights.get(tx * self.n_streams + stream, k_idx)
    }

    /// Every weight across the band, antenna-major: antenna `tx`'s lanes
    /// for all the streams back to back, stream `stream`'s
    /// `(tx · n_streams + stream) · n_k` in.
    pub(crate) fn weight_rows(&self) -> Lanes<'_> {
        self.weights.rows_from(0, self.n_tx * self.n_streams)
    }

    /// The effective channel `H(k)·W(k)` a set of clients would see.
    #[expect(
        clippy::expect_used,
        reason = "caller contract — h spans the same antennas that built this precoder; mul_mat only errors on shape mismatch"
    )]
    pub(crate) fn effective_channel(&self, k_idx: usize, h: &CMat) -> CMat {
        let rows = 0..self.n_tx * self.n_streams;
        let w = rows.map(|row| self.weights.get(row, k_idx)).collect();
        h.mul_mat(&CMat::from_vec(self.n_tx, self.n_streams, w))
            .expect("dimensions fixed at construction")
    }
}

/// Every entry of `w` times the complex `γ + 0j`, as the full complex
/// multiply `z * Complex64::real(γ)`: `im · 0` keeps its sign.
fn scale_by_real(w: &mut Planar, gamma: f64) {
    for row in 0..w.rows() {
        let (re, im) = w.row_mut(row);
        for (re, im) in re.iter_mut().zip(im) {
            let z = Complex64::new(*re, *im) * Complex64::real(gamma);
            (*re, *im) = (z.re, z.im);
        }
    }
}

#[cfg(test)]
impl Precoder {
    /// Number of transmit antennas.
    pub(crate) fn n_tx(&self) -> usize {
        self.n_tx
    }

    /// Antenna `tx`'s weight for stream `stream` across the band, one lane
    /// per subcarrier.
    pub(crate) fn lanes(&self, tx: usize, stream: usize) -> Lanes<'_> {
        self.weights.row(tx * self.n_streams + stream)
    }

    /// Mean transmit power of antenna `m`, averaged over subcarriers,
    /// assuming unit-power streams.
    fn antenna_power(&self, m: usize) -> f64 {
        let n_k = self.k_hats.len();
        (0..n_k)
            .map(|k| {
                (0..self.n_streams)
                    .map(|j| self.weight(k, m, j).norm_sqr())
                    .sum::<f64>()
            })
            .sum::<f64>()
            / n_k as f64
    }
}

#[cfg(test)]
pub(crate) mod tests {
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
                assert!((p.stream_gain(k, h.row(j).iter().copied(), j) - g.re).abs() < 1e-12);
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
        let gain = |p: &Precoder, h: &CMat, j: usize| p.stream_gain(0, h.row(j).iter().copied(), j);
        assert!((gain(&p_bad, &bad_h, 0) - gain(&p_good, &good_h, 0)).abs() < 1e-9);
        assert!(gain(&p_bad, &bad_h, 1) < 0.1);
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
        let p = Precoder::mrt(planar_rows(&rows).rows_from(0, n), n).unwrap();
        for (k, row) in rows.iter().enumerate() {
            let mut received = Complex64::ZERO;
            for (m, h) in row.iter().enumerate() {
                received += *h * p.weight(k, m, 0);
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
        let p = Precoder::mrt(planar_rows(&rows).rows_from(0, 5), 5).unwrap();
        for m in 0..5 {
            assert!(p.antenna_power(m) <= 1.0 + 1e-12, "antenna {m}");
        }
    }

    /// The per-subcarrier build the lanes replaced, kept as the reference:
    /// `ZfSolver::pinv_into` (Gram matrix over `Hᴴ` staged once, in-place
    /// Cholesky, both substitutions in AXPY form) on one `CMat` at a time,
    /// then each stream's column power and gain, `k̂`, and the per-antenna
    /// power pass over the `CMat`s.
    fn per_subcarrier_zf(hs: &[CMat]) -> Result<(Vec<CMat>, Vec<f64>), JmbError> {
        let (n, m) = (hs[0].rows(), hs[0].cols());
        let mut weights = Vec::new();
        let mut k_hats = Vec::new();
        for h in hs {
            if h.rows() != n || h.cols() != m {
                return Err(JmbError::MeasurementShape {
                    expected: n * m,
                    got: h.rows() * h.cols(),
                });
            }
            let mut ht = vec![Complex64::ZERO; n * m];
            for j in 0..n {
                for (k, &hjk) in h.row(j).iter().enumerate() {
                    ht[k * n + j] = hjk.conj();
                }
            }
            let mut gram = vec![Complex64::ZERO; n * n];
            let mut max_diag = 0.0f64;
            for i in 0..n {
                let row = &mut gram[i * n..i * n + i + 1];
                for (&a, ht_row) in h.row(i).iter().zip(ht.chunks_exact(n)) {
                    for (g, &t) in row.iter_mut().zip(&ht_row[..i + 1]) {
                        *g = a.mul_add(t, *g);
                    }
                }
                max_diag = max_diag.max(row[i].re);
            }
            if max_diag <= 0.0 || !max_diag.is_finite() {
                return Err(JmbError::Precoding(MatError::Singular));
            }
            let eps = 1e-13 * max_diag;
            for j in 0..n {
                let mut d = gram[j * n + j].re;
                for k in 0..j {
                    d -= gram[j * n + k].norm_sqr();
                }
                if d <= eps {
                    return Err(JmbError::Precoding(MatError::Singular));
                }
                let ljj = d.sqrt();
                gram[j * n + j] = Complex64::real(ljj);
                for i in j + 1..n {
                    let mut s = gram[i * n + j];
                    for k in 0..j {
                        s -= gram[i * n + k] * gram[j * n + k].conj();
                    }
                    gram[i * n + j] = s.scale(1.0 / ljj);
                }
            }
            let mut work = vec![Complex64::ZERO; n * m];
            for i in 0..n {
                let (prev, rest) = work.split_at_mut(i * m);
                let row_i = &mut rest[..m];
                row_i.copy_from_slice(h.row(i));
                for (k, w_k) in prev.chunks_exact(m).enumerate() {
                    let l = gram[i * n + k];
                    for (r, &w) in row_i.iter_mut().zip(w_k) {
                        *r -= l * w;
                    }
                }
                let inv = 1.0 / gram[i * n + i].re;
                for r in row_i.iter_mut() {
                    *r = r.scale(inv);
                }
            }
            for i in (0..n).rev() {
                let (head, rest) = work.split_at_mut((i + 1) * m);
                let row_i = &mut head[i * m..];
                for (k, w_k) in (i + 1..n).zip(rest.chunks_exact(m)) {
                    let l = gram[k * n + i].conj();
                    for (r, &w) in row_i.iter_mut().zip(w_k) {
                        *r -= l * w;
                    }
                }
                let inv = 1.0 / gram[i * n + i].re;
                for r in row_i.iter_mut() {
                    *r = r.scale(inv);
                }
            }
            let mut w = CMat::zeros(m, n);
            for i in 0..n {
                for c in 0..m {
                    w[(c, i)] = work[i * m + c].conj();
                }
            }
            let mut col_gain = vec![0.0f64; n];
            for (j, g) in col_gain.iter_mut().enumerate() {
                let p = work[j * m..(j + 1) * m]
                    .iter()
                    .fold(0.0, |p, w| p + w.norm_sqr());
                if p <= 0.0 || !p.is_finite() {
                    return Err(JmbError::Precoding(MatError::Singular));
                }
                *g = 1.0 / p.sqrt();
            }
            for a in 0..m {
                for j in 0..n {
                    w[(a, j)] = w[(a, j)] * col_gain[j];
                }
            }
            k_hats.push((col_gain.iter().map(|g| g * g).sum::<f64>() / n as f64).sqrt());
            weights.push(w);
        }
        let n_k = weights.len() as f64;
        let mut busiest = 0.0f64;
        for a in 0..m {
            let p: f64 = weights
                .iter()
                .map(|w| (0..n).map(|j| w[(a, j)].norm_sqr()).sum::<f64>())
                .sum::<f64>()
                / n_k;
            busiest = busiest.max(p);
        }
        if busiest <= 0.0 || !busiest.is_finite() {
            return Err(JmbError::Precoding(MatError::Singular));
        }
        let gamma = (1.0 / busiest).sqrt();
        for (w, k) in weights.iter_mut().zip(k_hats.iter_mut()) {
            w.scale_in_place(Complex64::real(gamma));
            *k *= gamma;
        }
        Ok((weights, k_hats))
    }

    /// Every weight and `k̂` of `p` as bits, subcarrier-major.
    fn bits(p: &Precoder) -> Vec<u64> {
        let mut out: Vec<u64> = p.k_hats().iter().map(|k| k.to_bits()).collect();
        for k in 0..p.k_hats().len() {
            for m in 0..p.n_tx() {
                for j in 0..p.n_streams() {
                    let w = p.weight(k, m, j);
                    out.extend([w.re.to_bits(), w.im.to_bits()]);
                }
            }
        }
        out
    }

    /// The reference's output in [`bits`]' order.
    fn reference_bits((weights, k_hats): (Vec<CMat>, Vec<f64>)) -> Vec<u64> {
        let mut out: Vec<u64> = k_hats.iter().map(|k| k.to_bits()).collect();
        for w in &weights {
            out.extend(
                w.as_slice()
                    .iter()
                    .flat_map(|z| [z.re.to_bits(), z.im.to_bits()]),
            );
        }
        out
    }

    mod lanes_match_the_per_subcarrier_build {
        use super::*;
        use proptest::prelude::*;

        proptest! {
            #![proptest_config(ProptestConfig::with_cases(64))]

            /// Every shape `n ≤ m ≤ 10` on bands of 1, 3, 52 (the occupied
            /// subcarriers) and 57 lanes: the same weights and `k̂`, bit for
            /// bit.
            #[test]
            fn bit_for_bit(
                n in 1usize..11,
                extra in 0usize..10,
                band in 0usize..4,
                seed in 0u64..1_000_000,
            ) {
                let m = (n + extra).min(10);
                let n_k = [1, 3, 52, 57][band];
                let hs: Vec<CMat> = (0..n_k).map(|k| random_h(n, m, seed * 64 + k as u64)).collect();
                let want = per_subcarrier_zf(&hs).map(reference_bits);
                let got = Precoder::zero_forcing(&hs).map(|p| bits(&p));
                prop_assert_eq!(got, want);
            }
        }
    }

    mod row_phasors_reach_no_power {
        use super::*;
        use proptest::prelude::*;
        use rand::Rng;

        proptest! {
            #![proptest_config(ProptestConfig::with_cases(64))]

            /// A receiver's oscillator turns its row of the measured channel
            /// by one unit phasor per subcarrier: ZF on `R·H` is `W(H)·R⁻¹`,
            /// so `k̂` and every `|g|²` of the true channel through it are
            /// those of `W(H)`, to rounding, for every shape `n ≤ m ≤ 10` on
            /// bands of 1, 3 and 52 subcarriers: `k̂` within 1e-12 relative,
            /// `|g|²` within 1e-11 of the larger of it and `k̂²` on its
            /// subcarrier (1.5e-12 the largest seen, on a square channel of
            /// condition number 120).
            #[test]
            fn k_hat_and_every_gain_hold(
                n in 1usize..11,
                extra in 0usize..10,
                band in 0usize..3,
                seed in 0u64..1_000_000,
            ) {
                let m = (n + extra).min(10);
                let n_k = [1, 3, 52][band];
                let hs: Vec<CMat> = (0..n_k).map(|k| random_h(n, m, seed * 64 + k as u64)).collect();
                let mut rng = rng_from_seed(seed ^ 0x0505);
                let turned: Vec<CMat> = hs
                    .iter()
                    .map(|h| {
                        let mut r = h.clone();
                        for j in 0..n {
                            let phasor = Complex64::cis(2.0 * std::f64::consts::PI * rng.gen::<f64>());
                            for c in 0..m {
                                r[(j, c)] = phasor * h[(j, c)];
                            }
                        }
                        r
                    })
                    .collect();
                let (p, q) = (Precoder::zero_forcing(&hs), Precoder::zero_forcing(&turned));
                prop_assert!(p.is_ok() && q.is_ok(), "a random channel is singular");
                let (p, q) = (p.unwrap(), q.unwrap());
                let close = |a: f64, b: f64, scale: f64| (a - b).abs() <= 1e-12 * scale;
                prop_assert!(close(p.k_hat(), q.k_hat(), p.k_hat()), "k̂ {} vs {}", p.k_hat(), q.k_hat());
                for (k_idx, h) in hs.iter().enumerate() {
                    let k2 = p.k_hats()[k_idx].powi(2);
                    prop_assert!(close(p.k_hats()[k_idx], q.k_hats()[k_idx], p.k_hats()[k_idx]));
                    let (g, g_turned) = (p.effective_channel(k_idx, h), q.effective_channel(k_idx, h));
                    for (a, b) in g.as_slice().iter().zip(g_turned.as_slice()) {
                        let (a, b) = (a.norm_sqr(), b.norm_sqr());
                        prop_assert!(close(a, b, 10.0 * k2.max(a)), "|g|² {} vs {}", a, b);
                    }
                }
            }
        }
    }

    #[test]
    fn a_singular_subcarrier_mid_band_fails_the_band() {
        let mut hs: Vec<CMat> = (0..52).map(|k| random_h(3, 4, 900 + k)).collect();
        // Subcarrier 26: the third client's row repeats the first's.
        for c in 0..4 {
            hs[26][(2, c)] = hs[26][(0, c)];
        }
        let want = Err(JmbError::Precoding(MatError::Singular));
        assert_eq!(per_subcarrier_zf(&hs).map(|_| ()), want);
        assert_eq!(Precoder::zero_forcing(&hs).map(|_| ()), want);
    }

    #[test]
    fn shapes_are_checked_before_any_arithmetic() {
        // A singular subcarrier ahead of a mismatched one: the shape error
        // wins, since every shape is checked before the solve starts (the
        // per-subcarrier build reported the singular one).
        let mut hs: Vec<CMat> = (0..4).map(|k| random_h(2, 3, 40 + k)).collect();
        hs[1] = CMat::zeros(2, 3);
        hs[3] = random_h(3, 3, 44);
        let shape = JmbError::MeasurementShape {
            expected: 6,
            got: 9,
        };
        assert_eq!(Precoder::zero_forcing(&hs).map(|_| ()), Err(shape));
        assert_eq!(
            per_subcarrier_zf(&hs).map(|_| ()),
            Err(JmbError::Precoding(MatError::Singular))
        );
    }

    #[test]
    fn mrt_empty_rejected() {
        assert!(Precoder::mrt((&[], &[]), 3).is_err());
        assert!(Precoder::mrt((&[1.0], &[0.0]), 0).is_err());
        // Ragged: seven lanes are not rows of three antennas.
        assert!(matches!(
            Precoder::mrt((&[1.0; 7], &[0.0; 7]), 3),
            Err(JmbError::MeasurementShape {
                expected: 6,
                got: 7
            })
        ));
    }

    /// Per-subcarrier rows (`n_tx` channels each) as a planar table of
    /// `n_tx` rows across the subcarrier lanes, as a network keeps `H̃`.
    fn planar_rows(rows: &[Vec<Complex64>]) -> Planar {
        let mut h = Planar::default();
        h.zeroed(rows[0].len(), rows.len());
        for (k, row) in rows.iter().enumerate() {
            for (m, &z) in row.iter().enumerate() {
                h.set(m, k, z);
            }
        }
        h
    }

    /// `Precoder::mrt` as it was, over one `Vec` of antenna channels per
    /// subcarrier: the reference the lanes are held to.
    pub(crate) fn mrt_from_rows(h_rows: &[Vec<Complex64>]) -> Precoder {
        let n_tx = h_rows[0].len();
        let mut weights = Planar::default();
        weights.zeroed(n_tx, h_rows.len());
        let mut k_hats = Vec::with_capacity(h_rows.len());
        for (k_idx, row) in h_rows.iter().enumerate() {
            let norm = row.iter().map(|h| h.norm_sqr()).sum::<f64>().sqrt();
            let w = |h: &Complex64| match norm > 0.0 {
                true => h.conj() / norm,
                false => Complex64::ZERO,
            };
            let worst = row.iter().map(|h| w(h).norm_sqr()).fold(0.0, f64::max);
            let k_hat = (1.0 / worst).sqrt();
            for (m, h) in row.iter().enumerate() {
                weights.set(m, k_idx, w(h) * Complex64::real(k_hat));
            }
            k_hats.push(k_hat);
        }
        Precoder {
            weights,
            k_hats,
            n_tx,
            n_streams: 1,
        }
    }

    #[test]
    fn mrt_lanes_match_the_per_subcarrier_rows() {
        let mut rng = rng_from_seed(5);
        for n_tx in 1..=6 {
            let rows: Vec<Vec<Complex64>> = (0..52)
                .map(|_| (0..n_tx).map(|_| complex_gaussian(&mut rng, 1.0)).collect())
                .collect();
            let got = Precoder::mrt(planar_rows(&rows).rows_from(0, n_tx), n_tx).unwrap();
            let want = mrt_from_rows(&rows);
            assert_eq!(got.k_hats, want.k_hats.clone());
            for k in 0..52 {
                for m in 0..n_tx {
                    let (a, b) = (got.weight(k, m, 0), want.weight(k, m, 0));
                    assert_eq!(
                        (a.re.to_bits(), a.im.to_bits()),
                        (b.re.to_bits(), b.im.to_bits())
                    );
                }
            }
        }
    }
}
