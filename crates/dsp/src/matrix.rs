//! Dense complex linear algebra.
//!
//! JMB's beamforming inverts the joint channel matrix `H` (one row per client,
//! one column per AP antenna, §4 of the paper) and computes pseudo-inverses
//! when the APs collectively have more antennas than there are clients. The
//! matrices involved are small (at most ~20×20 in the paper's testbed), so a
//! straightforward Gauss–Jordan with partial pivoting is both adequate and
//! easy to verify.

use crate::complex::Complex64;
use std::fmt;
use std::ops::{Add, Index, IndexMut, Mul, Sub};

/// Errors from linear-algebra operations.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum MatError {
    /// The matrix is singular (or numerically so) and cannot be inverted.
    Singular,
    /// Operand dimensions are incompatible for the requested operation.
    DimensionMismatch {
        /// Dimensions of the left operand (rows, cols).
        left: (usize, usize),
        /// Dimensions of the right operand (rows, cols).
        right: (usize, usize),
    },
    /// The operation requires a square matrix.
    NotSquare,
}

impl fmt::Display for MatError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            MatError::Singular => write!(f, "matrix is singular"),
            MatError::DimensionMismatch { left, right } => write!(
                f,
                "dimension mismatch: {}x{} vs {}x{}",
                left.0, left.1, right.0, right.1
            ),
            MatError::NotSquare => write!(f, "matrix is not square"),
        }
    }
}

impl std::error::Error for MatError {}

/// A dense, row-major complex matrix.
///
/// # Examples
///
/// ```
/// use jmb_dsp::{CMat, Complex64};
///
/// let h = CMat::from_rows(&[
///     &[Complex64::new(1.0, 0.0), Complex64::new(0.0, 1.0)],
///     &[Complex64::new(0.0, -1.0), Complex64::new(2.0, 0.0)],
/// ]);
/// let inv = h.inverse().unwrap();
/// let prod = h.mul_mat(&inv).unwrap();
/// assert!(prod.is_identity(1e-10));
/// ```
#[derive(Clone, PartialEq, Default)]
pub struct CMat {
    rows: usize,
    cols: usize,
    data: Vec<Complex64>,
}

impl CMat {
    /// Creates a `rows × cols` matrix of zeros.
    pub fn zeros(rows: usize, cols: usize) -> Self {
        CMat {
            rows,
            cols,
            data: vec![Complex64::ZERO; rows * cols],
        }
    }

    /// Creates the `n × n` identity matrix.
    pub fn identity(n: usize) -> Self {
        let mut m = CMat::zeros(n, n);
        for i in 0..n {
            m[(i, i)] = Complex64::ONE;
        }
        m
    }

    /// Creates a matrix from row slices.
    ///
    /// # Panics
    ///
    /// Panics if rows have inconsistent lengths or there are no rows.
    pub fn from_rows(rows: &[&[Complex64]]) -> Self {
        assert!(!rows.is_empty(), "from_rows: no rows");
        let cols = rows[0].len();
        let mut data = Vec::with_capacity(rows.len() * cols);
        for r in rows {
            assert_eq!(r.len(), cols, "from_rows: ragged rows");
            data.extend_from_slice(r);
        }
        CMat {
            rows: rows.len(),
            cols,
            data,
        }
    }

    /// Creates a matrix from a flat row-major vector.
    ///
    /// # Panics
    ///
    /// Panics if `data.len() != rows * cols`.
    pub fn from_vec(rows: usize, cols: usize, data: Vec<Complex64>) -> Self {
        assert_eq!(data.len(), rows * cols, "from_vec: length mismatch");
        CMat { rows, cols, data }
    }

    /// Creates an `n × n` diagonal matrix from the given diagonal entries.
    pub fn diag(entries: &[Complex64]) -> Self {
        let n = entries.len();
        let mut m = CMat::zeros(n, n);
        for (i, &e) in entries.iter().enumerate() {
            m[(i, i)] = e;
        }
        m
    }

    /// Number of rows.
    #[inline]
    pub fn rows(&self) -> usize {
        self.rows
    }

    /// Number of columns.
    #[inline]
    pub fn cols(&self) -> usize {
        self.cols
    }

    /// `true` if the matrix is square.
    #[inline]
    pub fn is_square(&self) -> bool {
        self.rows == self.cols
    }

    /// Borrow of the underlying row-major data.
    #[inline]
    pub fn as_slice(&self) -> &[Complex64] {
        &self.data
    }

    /// Returns row `r` as a slice.
    #[inline]
    pub fn row(&self, r: usize) -> &[Complex64] {
        &self.data[r * self.cols..(r + 1) * self.cols]
    }

    /// Hermitian (conjugate) transpose `Aᴴ`.
    pub fn hermitian(&self) -> CMat {
        let mut t = CMat::zeros(self.cols, self.rows);
        for r in 0..self.rows {
            for c in 0..self.cols {
                t[(c, r)] = self[(r, c)].conj();
            }
        }
        t
    }

    /// Reshapes the matrix to `rows × cols`, zero-filled, reusing the
    /// existing allocation when it is large enough. Intended for scratch
    /// buffers that live across hot-loop iterations.
    pub fn reset(&mut self, rows: usize, cols: usize) {
        self.rows = rows;
        self.cols = cols;
        self.data.clear();
        self.data.resize(rows * cols, Complex64::ZERO);
    }

    /// Matrix product `self · rhs` written into `out` (allocation-free once
    /// `out`'s buffer has grown to size; `out` is reshaped as needed).
    ///
    /// `out` must not alias `self` or `rhs`.
    pub fn mul_into(&self, rhs: &CMat, out: &mut CMat) -> Result<(), MatError> {
        if self.cols != rhs.rows {
            return Err(MatError::DimensionMismatch {
                left: (self.rows, self.cols),
                right: (rhs.rows, rhs.cols),
            });
        }
        out.reset(self.rows, rhs.cols);
        for r in 0..self.rows {
            for k in 0..self.cols {
                let a = self[(r, k)];
                if a == Complex64::ZERO {
                    continue;
                }
                for c in 0..rhs.cols {
                    out[(r, c)] = a.mul_add(rhs[(k, c)], out[(r, c)]);
                }
            }
        }
        Ok(())
    }

    /// Scales every entry in place.
    pub fn scale_in_place(&mut self, k: Complex64) {
        for x in &mut self.data {
            *x *= k;
        }
    }

    /// Matrix product `self · rhs` in a fresh matrix.
    pub fn mul_mat(&self, rhs: &CMat) -> Result<CMat, MatError> {
        let mut out = CMat::default();
        self.mul_into(rhs, &mut out)?;
        Ok(out)
    }

    /// Matrix–vector product `self · v`.
    pub fn mul_vec(&self, v: &[Complex64]) -> Result<Vec<Complex64>, MatError> {
        if self.cols != v.len() {
            return Err(MatError::DimensionMismatch {
                left: (self.rows, self.cols),
                right: (v.len(), 1),
            });
        }
        Ok((0..self.rows)
            .map(|r| {
                let mut acc = Complex64::ZERO;
                for c in 0..self.cols {
                    acc = self[(r, c)].mul_add(v[c], acc);
                }
                acc
            })
            .collect())
    }

    /// Scales every entry by a complex factor.
    pub fn scale(&self, k: Complex64) -> CMat {
        CMat {
            rows: self.rows,
            cols: self.cols,
            data: self.data.iter().map(|&x| x * k).collect(),
        }
    }

    /// Maximum absolute row sum (induced ∞-norm).
    pub fn inf_norm(&self) -> f64 {
        (0..self.rows)
            .map(|r| self.row(r).iter().map(|x| x.abs()).sum::<f64>())
            .fold(0.0, f64::max)
    }

    /// `true` if `‖self − I‖∞ < tol`.
    pub fn is_identity(&self, tol: f64) -> bool {
        if !self.is_square() {
            return false;
        }
        for r in 0..self.rows {
            for c in 0..self.cols {
                let expect = if r == c {
                    Complex64::ONE
                } else {
                    Complex64::ZERO
                };
                if (self[(r, c)] - expect).abs() >= tol {
                    return false;
                }
            }
        }
        true
    }

    /// `true` if all off-diagonal entries have magnitude below `tol`.
    ///
    /// This is the property joint beamforming must achieve: the *effective*
    /// channel `H·W` seen by the clients must be diagonal (paper Eq. 1), i.e.
    /// each client hears only its own stream.
    pub fn is_diagonal(&self, tol: f64) -> bool {
        for r in 0..self.rows {
            for c in 0..self.cols {
                if r != c && self[(r, c)].abs() >= tol {
                    return false;
                }
            }
        }
        true
    }

    /// Inverse by Gauss–Jordan elimination with partial pivoting.
    ///
    /// Returns [`MatError::Singular`] if a pivot is (numerically) zero.
    pub fn inverse(&self) -> Result<CMat, MatError> {
        if !self.is_square() {
            return Err(MatError::NotSquare);
        }
        let n = self.rows;
        let mut a = self.clone();
        let mut inv = CMat::identity(n);
        // Scale-aware singularity threshold.
        let scale = self.inf_norm().max(f64::MIN_POSITIVE);
        let eps = 1e-13 * scale;

        for col in 0..n {
            // Partial pivot: largest magnitude in this column at/below the diagonal.
            let pivot_row = (col..n)
                .max_by(|&i, &j| {
                    a[(i, col)]
                        .abs()
                        .partial_cmp(&a[(j, col)].abs())
                        .unwrap_or(std::cmp::Ordering::Equal)
                })
                .expect("non-empty range");
            if a[(pivot_row, col)].abs() <= eps {
                return Err(MatError::Singular);
            }
            if pivot_row != col {
                for c in 0..n {
                    let tmp = a[(col, c)];
                    a[(col, c)] = a[(pivot_row, c)];
                    a[(pivot_row, c)] = tmp;
                    let tmp = inv[(col, c)];
                    inv[(col, c)] = inv[(pivot_row, c)];
                    inv[(pivot_row, c)] = tmp;
                }
            }
            let pivot = a[(col, col)].inv();
            for c in 0..n {
                a[(col, c)] *= pivot;
                inv[(col, c)] *= pivot;
            }
            for r in 0..n {
                if r == col {
                    continue;
                }
                let factor = a[(r, col)];
                if factor == Complex64::ZERO {
                    continue;
                }
                for c in 0..n {
                    let ac = a[(col, c)];
                    let ic = inv[(col, c)];
                    a[(r, c)] -= factor * ac;
                    inv[(r, c)] -= factor * ic;
                }
            }
        }
        Ok(inv)
    }

    /// Moore–Penrose pseudo-inverse.
    ///
    /// * Square: plain inverse.
    /// * Fat (`rows < cols`, more total AP antennas than clients): right
    ///   pseudo-inverse `Aᴴ(AAᴴ)⁻¹`, the minimum-power zero-forcing precoder.
    /// * Tall (`rows > cols`): left pseudo-inverse `(AᴴA)⁻¹Aᴴ`.
    pub fn pseudo_inverse(&self) -> Result<CMat, MatError> {
        use std::cmp::Ordering;
        match self.rows.cmp(&self.cols) {
            Ordering::Equal => self.inverse(),
            Ordering::Less => {
                let ah = self.hermitian();
                let gram = self.mul_mat(&ah)?; // rows × rows
                ah.mul_mat(&gram.inverse()?)
            }
            Ordering::Greater => {
                let ah = self.hermitian();
                let gram = ah.mul_mat(self)?; // cols × cols
                gram.inverse()?.mul_mat(&ah)
            }
        }
    }

    /// Largest singular value, by power iteration on `AᴴA`.
    pub fn sigma_max(&self) -> f64 {
        self.extreme_singular_value(false)
    }

    /// Smallest singular value, by inverse power iteration on `AᴴA`.
    ///
    /// Returns `0.0` if `AᴴA` is singular.
    pub fn sigma_min(&self) -> f64 {
        self.extreme_singular_value(true)
    }

    /// 2-norm condition number `σ_max / σ_min` (∞ if singular).
    ///
    /// The paper (§11.2) notes JMB's beamforming throughput depends on how
    /// well-conditioned the channel matrix is; this is the measurement used
    /// by the experiment harness to report it.
    pub fn condition_number(&self) -> f64 {
        let smin = self.sigma_min();
        if smin <= 0.0 {
            f64::INFINITY
        } else {
            self.sigma_max() / smin
        }
    }

    fn extreme_singular_value(&self, smallest: bool) -> f64 {
        // Power iteration on M = AᴴA (Hermitian PSD). For the smallest
        // singular value we iterate with M⁻¹ instead.
        let m = match self.hermitian().mul_mat(self) {
            Ok(m) => m,
            Err(_) => return 0.0,
        };
        let op = if smallest {
            match m.inverse() {
                Ok(inv) => inv,
                Err(_) => return 0.0,
            }
        } else {
            m
        };
        let n = op.rows();
        // Deterministic, generically non-orthogonal start vector.
        let mut v: Vec<Complex64> = (0..n)
            .map(|i| Complex64::new(1.0 + i as f64 * 0.173, 0.31 * (i as f64 + 1.0)))
            .collect();
        let mut lambda = 0.0f64;
        for _ in 0..200 {
            let w = op.mul_vec(&v).expect("dims agree");
            let norm = w.iter().map(|x| x.norm_sqr()).sum::<f64>().sqrt();
            if norm == 0.0 {
                return 0.0;
            }
            let new_lambda = norm;
            v = w.iter().map(|&x| x / norm).collect();
            if (new_lambda - lambda).abs() <= 1e-12 * new_lambda.max(1.0) {
                lambda = new_lambda;
                break;
            }
            lambda = new_lambda;
        }
        // lambda approximates the top eigenvalue of op = AᴴA (or its inverse).
        if smallest {
            (1.0 / lambda).sqrt()
        } else {
            lambda.sqrt()
        }
    }
}

/// Allocation-free right pseudo-inverse solver for the zero-forcing case:
/// `H` is `n_streams × n_tx` with `n_streams ≤ n_tx` (every stream needs at
/// least one antenna), and the minimum-power ZF precoder is
/// `W = Hᴴ(HHᴴ)⁻¹`.
///
/// Instead of forming `(HHᴴ)⁻¹` explicitly (a Gauss–Jordan per subcarrier
/// plus three temporary matrices), the solver computes the Gram matrix
/// `G = HHᴴ` (Hermitian positive definite for full-rank `H`), factors it as
/// `G = LLᴴ` (Cholesky), solves `L·Y = H` and `Lᴴ·X = Y` by substitution,
/// and writes `W = Xᴴ` into the caller's output matrix. All intermediates
/// live in scratch buffers owned by the solver, so a per-subcarrier loop
/// does zero allocations after the first iteration.
#[derive(Debug, Clone)]
pub struct ZfSolver {
    n_streams: usize,
    n_tx: usize,
    /// `n_streams × n_streams` Gram matrix, overwritten by its Cholesky
    /// factor `L` (lower triangle; strict upper triangle is garbage).
    gram: Vec<Complex64>,
    /// `n_streams × n_tx` substitution scratch (`Y`, then `X`).
    work: Vec<Complex64>,
    /// `n_tx × n_streams` conjugate transpose of the current channel:
    /// `ht[k*n + j] = h[j][k]*`. Staged once per solve so the Gram
    /// assembly's inner loop runs over contiguous memory.
    ht: Vec<Complex64>,
}

impl ZfSolver {
    /// Creates a solver for `n_streams × n_tx` channels (`n_streams ≤ n_tx`).
    ///
    /// # Panics
    ///
    /// Panics if `n_streams == 0`, `n_tx == 0`, or `n_streams > n_tx`.
    pub fn new(n_streams: usize, n_tx: usize) -> Self {
        assert!(n_streams > 0 && n_tx > 0, "empty channel");
        assert!(
            n_streams <= n_tx,
            "zero-forcing needs n_streams ({n_streams}) <= n_tx ({n_tx})"
        );
        ZfSolver {
            n_streams,
            n_tx,
            gram: vec![Complex64::ZERO; n_streams * n_streams],
            work: vec![Complex64::ZERO; n_streams * n_tx],
            ht: vec![Complex64::ZERO; n_streams * n_tx],
        }
    }

    /// Assembles the Gram matrix `G = H·Hᴴ` (lower triangle + diagonal;
    /// Hermitian) into the solver's scratch and returns the largest diagonal
    /// entry.
    ///
    /// This is the first stage of [`ZfSolver::pinv_into`], split out so the
    /// benchmark suite can measure it in isolation. `H`'s conjugate transpose
    /// is staged once into a `n_tx × n_streams` scratch so the accumulation
    /// inner loop runs over contiguous rows (one broadcast element times one
    /// contiguous row per step), which LLVM vectorises; per output cell the
    /// summation order is ascending `k`, identical to a direct dot-product
    /// scan, so the assembled Gram matrix is bitwise identical to the naive
    /// triple loop.
    ///
    /// Returns [`MatError::Singular`] when the largest diagonal entry is not
    /// a positive finite number, and [`MatError::DimensionMismatch`] when
    /// `h`'s shape does not match the solver's.
    pub fn gram_assembly(&mut self, h: &CMat) -> Result<f64, MatError> {
        let (n, m) = (self.n_streams, self.n_tx);
        if h.rows() != n || h.cols() != m {
            return Err(MatError::DimensionMismatch {
                left: (n, m),
                right: (h.rows(), h.cols()),
            });
        }

        // Stage Hᴴ so the k-outer accumulation below reads contiguous rows.
        for j in 0..n {
            let hj = h.row(j);
            for (k, &hjk) in hj.iter().enumerate() {
                self.ht[k * n + j] = hjk.conj();
            }
        }

        // G = H·Hᴴ, lower triangle + diagonal only. Row i of G accumulates
        // rank-1 updates `hi[k] * ht[k][..=i]` for ascending k: per cell this
        // is the same ascending-k multiply-accumulate chain as the reference
        // dot product, just with the j loop innermost (contiguous).
        let mut max_diag = 0.0f64;
        for i in 0..n {
            let hi = h.row(i);
            let row = &mut self.gram[i * n..i * n + i + 1];
            row.fill(Complex64::ZERO);
            for (&a, ht_row) in hi.iter().zip(self.ht.chunks_exact(n)) {
                for (g, &t) in row.iter_mut().zip(&ht_row[..i + 1]) {
                    *g = a.mul_add(t, *g);
                }
            }
            max_diag = max_diag.max(row[i].re);
        }
        if max_diag <= 0.0 || !max_diag.is_finite() {
            return Err(MatError::Singular);
        }
        Ok(max_diag)
    }

    /// Squared 2-norm of column `j` of the precoder `W` computed by the last
    /// successful [`ZfSolver::pinv_into`], summed in ascending-antenna order
    /// (bitwise identical to scanning `W`'s column directly — conjugation
    /// does not change `|·|²`). Reads the solver's contiguous substitution
    /// scratch instead of striding down the output matrix.
    pub fn col_power(&self, j: usize) -> f64 {
        let m = self.n_tx;
        self.work[j * m..(j + 1) * m]
            .iter()
            .fold(0.0, |p, w| p + w.norm_sqr())
    }

    /// Computes `W = H⁺ = Hᴴ(HHᴴ)⁻¹` into `out` (`n_tx × n_streams`).
    ///
    /// Returns [`MatError::Singular`] when `H` is (numerically) rank
    /// deficient, and [`MatError::DimensionMismatch`] when `h`'s shape does
    /// not match the solver's.
    pub fn pinv_into(&mut self, h: &CMat, out: &mut CMat) -> Result<(), MatError> {
        let (n, m) = (self.n_streams, self.n_tx);
        let max_diag = self.gram_assembly(h)?;

        // In-place Cholesky G → L. The pivot threshold is relative to the
        // largest diagonal (the pivots are squared singular values, so this
        // rejects channels with 2-norm condition number ≳ 3·10⁶ — far past
        // anything beamforming could use).
        let eps = 1e-13 * max_diag;
        for j in 0..n {
            let mut d = self.gram[j * n + j].re;
            for k in 0..j {
                d -= self.gram[j * n + k].norm_sqr();
            }
            if d <= eps {
                return Err(MatError::Singular);
            }
            let ljj = d.sqrt();
            self.gram[j * n + j] = Complex64::real(ljj);
            for i in j + 1..n {
                let mut s = self.gram[i * n + j];
                for k in 0..j {
                    s -= self.gram[i * n + k] * self.gram[j * n + k].conj();
                }
                self.gram[i * n + j] = s.scale(1.0 / ljj);
            }
        }

        // Forward substitution L·Y = H (Y is n × m, row i depends on rows < i).
        // AXPY form: row i starts as H's row i and subtracts `l_ik · row_k`
        // for ascending k, so each cell sees the same ascending-k chain of
        // unfused `s - l·w` updates as a per-cell scan (bitwise identical),
        // while the inner loop walks two contiguous rows.
        for i in 0..n {
            let (prev, rest) = self.work.split_at_mut(i * m);
            let row_i = &mut rest[..m];
            row_i.copy_from_slice(h.row(i));
            for (k, w_k) in prev.chunks_exact(m).enumerate() {
                let l = self.gram[i * n + k];
                for (r, &w) in row_i.iter_mut().zip(w_k) {
                    *r -= l * w;
                }
            }
            let inv = 1.0 / self.gram[i * n + i].re;
            for r in row_i.iter_mut() {
                *r = r.scale(inv);
            }
        }
        // Back substitution Lᴴ·X = Y in place (row i depends on rows > i),
        // same AXPY restructuring with ascending k in `i+1..n`.
        for i in (0..n).rev() {
            let (head, rest) = self.work.split_at_mut((i + 1) * m);
            let row_i = &mut head[i * m..];
            for (k, w_k) in (i + 1..n).zip(rest.chunks_exact(m)) {
                let l = self.gram[k * n + i].conj();
                for (r, &w) in row_i.iter_mut().zip(w_k) {
                    *r -= l * w;
                }
            }
            let inv = 1.0 / self.gram[i * n + i].re;
            for r in row_i.iter_mut() {
                *r = r.scale(inv);
            }
        }

        // W = Xᴴ (n_tx × n_streams).
        out.reset(m, n);
        for i in 0..n {
            for c in 0..m {
                out[(c, i)] = self.work[i * m + c].conj();
            }
        }
        Ok(())
    }
}

impl Index<(usize, usize)> for CMat {
    type Output = Complex64;
    #[inline]
    fn index(&self, (r, c): (usize, usize)) -> &Complex64 {
        debug_assert!(r < self.rows && c < self.cols);
        &self.data[r * self.cols + c]
    }
}

impl IndexMut<(usize, usize)> for CMat {
    #[inline]
    fn index_mut(&mut self, (r, c): (usize, usize)) -> &mut Complex64 {
        debug_assert!(r < self.rows && c < self.cols);
        &mut self.data[r * self.cols + c]
    }
}

impl Add for &CMat {
    type Output = CMat;
    fn add(self, rhs: &CMat) -> CMat {
        assert_eq!(
            (self.rows, self.cols),
            (rhs.rows, rhs.cols),
            "add: shape mismatch"
        );
        CMat {
            rows: self.rows,
            cols: self.cols,
            data: self
                .data
                .iter()
                .zip(&rhs.data)
                .map(|(&a, &b)| a + b)
                .collect(),
        }
    }
}

impl Sub for &CMat {
    type Output = CMat;
    fn sub(self, rhs: &CMat) -> CMat {
        assert_eq!(
            (self.rows, self.cols),
            (rhs.rows, rhs.cols),
            "sub: shape mismatch"
        );
        CMat {
            rows: self.rows,
            cols: self.cols,
            data: self
                .data
                .iter()
                .zip(&rhs.data)
                .map(|(&a, &b)| a - b)
                .collect(),
        }
    }
}

impl Mul for &CMat {
    type Output = CMat;
    fn mul(self, rhs: &CMat) -> CMat {
        self.mul_mat(rhs).expect("matrix dimension mismatch in `*`")
    }
}

impl fmt::Debug for CMat {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(f, "CMat {}x{} [", self.rows, self.cols)?;
        for r in 0..self.rows {
            write!(f, "  ")?;
            for c in 0..self.cols {
                write!(f, "{:?} ", self[(r, c)])?;
            }
            writeln!(f)?;
        }
        write!(f, "]")
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn c(re: f64, im: f64) -> Complex64 {
        Complex64::new(re, im)
    }

    fn random_like(rows: usize, cols: usize, seed: u64) -> CMat {
        // Simple deterministic pseudo-random fill (xorshift).
        let mut s = seed | 1;
        let mut next = || {
            s ^= s << 13;
            s ^= s >> 7;
            s ^= s << 17;
            (s as f64 / u64::MAX as f64) * 2.0 - 1.0
        };
        let data = (0..rows * cols).map(|_| c(next(), next())).collect();
        CMat::from_vec(rows, cols, data)
    }

    #[test]
    fn identity_and_diag() {
        let i3 = CMat::identity(3);
        assert!(i3.is_identity(0.0_f64.max(1e-15)));
        let d = CMat::diag(&[c(1.0, 0.0), c(0.0, 2.0)]);
        assert_eq!(d[(0, 0)], c(1.0, 0.0));
        assert_eq!(d[(1, 1)], c(0.0, 2.0));
        assert_eq!(d[(0, 1)], Complex64::ZERO);
        assert!(d.is_diagonal(1e-15));
        assert!(!d.is_identity(1e-15));
    }

    #[test]
    fn mul_by_identity_is_noop() {
        let a = random_like(4, 4, 42);
        let i = CMat::identity(4);
        assert_eq!(a.mul_mat(&i).unwrap(), a);
        assert_eq!(i.mul_mat(&a).unwrap(), a);
    }

    #[test]
    fn mul_dimension_mismatch() {
        let a = CMat::zeros(2, 3);
        let b = CMat::zeros(2, 3);
        assert!(matches!(
            a.mul_mat(&b),
            Err(MatError::DimensionMismatch { .. })
        ));
    }

    #[test]
    fn hermitian_involution() {
        let a = random_like(3, 5, 7);
        assert_eq!(a.hermitian().hermitian(), a);
    }

    #[test]
    fn inverse_times_original_is_identity() {
        for seed in 1..10u64 {
            let a = random_like(4, 4, seed);
            let inv = a.inverse().expect("generic random matrix invertible");
            assert!(a.mul_mat(&inv).unwrap().is_identity(1e-9));
            assert!(inv.mul_mat(&a).unwrap().is_identity(1e-9));
        }
    }

    #[test]
    fn singular_detected() {
        // Rank-1 matrix.
        let a = CMat::from_rows(&[&[c(1.0, 1.0), c(2.0, 2.0)], &[c(2.0, 2.0), c(4.0, 4.0)]]);
        assert_eq!(a.inverse().unwrap_err(), MatError::Singular);
        assert_eq!(CMat::zeros(3, 3).inverse().unwrap_err(), MatError::Singular);
    }

    #[test]
    fn non_square_inverse_rejected() {
        assert_eq!(
            CMat::zeros(2, 3).inverse().unwrap_err(),
            MatError::NotSquare
        );
    }

    #[test]
    fn solve_linear_system() {
        let a = CMat::from_rows(&[&[c(2.0, 0.0), c(1.0, 0.0)], &[c(1.0, 0.0), c(3.0, 0.0)]]);
        let x_true = vec![c(1.0, -1.0), c(0.5, 2.0)];
        let b = a.mul_vec(&x_true).unwrap();
        let x = a.inverse().unwrap().mul_vec(&b).unwrap();
        for (got, want) in x.iter().zip(&x_true) {
            assert!((*got - *want).abs() < 1e-10);
        }
    }

    #[test]
    fn fat_pseudo_inverse_is_right_inverse() {
        // 2 clients, 4 total AP antennas: H is 2x4, H·H⁺ = I₂.
        let h = random_like(2, 4, 99);
        let pinv = h.pseudo_inverse().unwrap();
        assert_eq!(pinv.rows(), 4);
        assert_eq!(pinv.cols(), 2);
        assert!(h.mul_mat(&pinv).unwrap().is_identity(1e-9));
    }

    #[test]
    fn tall_pseudo_inverse_is_left_inverse() {
        let h = random_like(5, 2, 123);
        let pinv = h.pseudo_inverse().unwrap();
        assert!(pinv.mul_mat(&h).unwrap().is_identity(1e-9));
    }

    #[test]
    fn condition_number_of_identity_is_one() {
        let i = CMat::identity(4);
        let k = i.condition_number();
        assert!((k - 1.0).abs() < 1e-6, "cond(I) = {k}");
    }

    #[test]
    fn condition_number_of_scaled_diag() {
        let d = CMat::diag(&[c(10.0, 0.0), c(1.0, 0.0)]);
        let k = d.condition_number();
        assert!((k - 10.0).abs() < 1e-4, "cond = {k}");
    }

    #[test]
    fn sigma_bounds_frobenius() {
        let a = random_like(4, 4, 5);
        let smax = a.sigma_max();
        let fro = a
            .as_slice()
            .iter()
            .map(|x| x.norm_sqr())
            .sum::<f64>()
            .sqrt();
        assert!(smax <= fro + 1e-9);
        assert!(smax * 2.0 >= fro); // rank ≤ 4 ⇒ fro ≤ 2·σmax
    }

    #[test]
    fn singular_matrix_condition_is_infinite() {
        let a = CMat::from_rows(&[&[c(1.0, 0.0), c(2.0, 0.0)], &[c(2.0, 0.0), c(4.0, 0.0)]]);
        assert!(a.condition_number().is_infinite());
    }

    #[test]
    fn add_sub_roundtrip() {
        let a = random_like(3, 3, 11);
        let b = random_like(3, 3, 12);
        let s = &(&a + &b) - &b;
        for (x, y) in s.as_slice().iter().zip(a.as_slice()) {
            assert!((*x - *y).abs() < 1e-12);
        }
    }

    #[test]
    fn mul_into_matches_mul_mat_and_reuses_buffer() {
        let a = random_like(3, 5, 21);
        let b = random_like(5, 2, 22);
        let mut out = CMat::zeros(1, 1); // wrong shape on purpose
        a.mul_into(&b, &mut out).unwrap();
        assert_eq!(out, a.mul_mat(&b).unwrap());
        // Second use with different shapes reuses the grown buffer.
        let c = random_like(2, 2, 23);
        let d = random_like(2, 2, 24);
        c.mul_into(&d, &mut out).unwrap();
        assert_eq!(out, c.mul_mat(&d).unwrap());
        assert!(matches!(
            a.mul_into(&d, &mut out),
            Err(MatError::DimensionMismatch { .. })
        ));
    }

    #[test]
    fn scale_in_place_matches_scale() {
        let a = random_like(3, 3, 51);
        let k = c(0.3, -1.1);
        let mut b = a.clone();
        b.scale_in_place(k);
        assert_eq!(b, a.scale(k));
    }

    #[test]
    fn zf_solver_matches_pseudo_inverse() {
        for seed in 1..8u64 {
            for &(rows, cols) in &[(2usize, 4usize), (3, 3), (4, 10), (1, 2)] {
                let h = random_like(rows, cols, seed * 100 + rows as u64 * 10 + cols as u64);
                let mut solver = ZfSolver::new(rows, cols);
                let mut w = CMat::zeros(0, 0);
                solver.pinv_into(&h, &mut w).expect("full-rank random");
                let reference = h.pseudo_inverse().unwrap();
                assert_eq!(w.rows(), cols);
                assert_eq!(w.cols(), rows);
                for (x, y) in w.as_slice().iter().zip(reference.as_slice()) {
                    assert!((*x - *y).abs() < 1e-9, "{rows}x{cols} seed {seed}");
                }
                // And it is a true right inverse.
                assert!(h.mul_mat(&w).unwrap().is_identity(1e-9));
            }
        }
    }

    #[test]
    fn zf_solver_reuse_across_calls() {
        let mut solver = ZfSolver::new(3, 6);
        let mut w = CMat::zeros(0, 0);
        for seed in 1..20u64 {
            let h = random_like(3, 6, 1000 + seed);
            solver.pinv_into(&h, &mut w).unwrap();
            assert!(h.mul_mat(&w).unwrap().is_identity(1e-9), "seed {seed}");
        }
    }

    #[test]
    fn zf_solver_rejects_rank_deficient() {
        // Rank-1 2×2 (the channel two co-located clients would produce).
        let h = CMat::from_rows(&[&[c(1.0, 0.0), c(1.0, 0.0)], &[c(1.0, 0.0), c(1.0, 0.0)]]);
        let mut solver = ZfSolver::new(2, 2);
        let mut w = CMat::zeros(0, 0);
        assert_eq!(solver.pinv_into(&h, &mut w), Err(MatError::Singular));
        // All-zero channel.
        let z = CMat::zeros(2, 3);
        let mut solver = ZfSolver::new(2, 3);
        assert_eq!(solver.pinv_into(&z, &mut w), Err(MatError::Singular));
    }

    #[test]
    fn zf_solver_shape_mismatch() {
        let mut solver = ZfSolver::new(2, 4);
        let mut w = CMat::zeros(0, 0);
        let h = random_like(3, 4, 1);
        assert!(matches!(
            solver.pinv_into(&h, &mut w),
            Err(MatError::DimensionMismatch { .. })
        ));
    }

    #[test]
    #[should_panic(expected = "n_streams")]
    fn zf_solver_rejects_underdetermined() {
        ZfSolver::new(3, 2);
    }

    #[test]
    fn rows_and_cols_access() {
        let a = CMat::from_rows(&[&[c(1.0, 0.0), c(2.0, 0.0)], &[c(3.0, 0.0), c(4.0, 0.0)]]);
        assert_eq!(a.row(1), &[c(3.0, 0.0), c(4.0, 0.0)]);
        assert_eq!((a.rows(), a.cols()), (2, 2));
        assert_eq!(a[(1, 0)], c(3.0, 0.0));
    }
}
