//! Dense complex linear algebra.
//!
//! JMB's beamforming inverts the joint channel matrix `H` (one row per client,
//! one column per AP antenna, §4 of the paper) and computes pseudo-inverses
//! when the APs collectively have more antennas than there are clients. The
//! matrices involved are small (at most ~20×20 in the paper's testbed), so a
//! straightforward Gauss–Jordan with partial pivoting is both adequate and
//! easy to verify. The zero-forcing precoder is solved by [`ZfSolver`] for
//! a whole band at once, the subcarriers as [`Planar`] lanes.

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
/// let h = CMat::from_vec(
///     2,
///     2,
///     vec![
///         Complex64::new(1.0, 0.0),
///         Complex64::new(0.0, 1.0),
///         Complex64::new(0.0, -1.0),
///         Complex64::new(2.0, 0.0),
///     ],
/// );
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

    /// Creates a matrix from a flat row-major vector.
    ///
    /// # Panics
    ///
    /// Panics if `data.len() != rows * cols`.
    pub fn from_vec(rows: usize, cols: usize, data: Vec<Complex64>) -> Self {
        assert_eq!(data.len(), rows * cols, "from_vec: length mismatch");
        CMat { rows, cols, data }
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
    fn is_square(&self) -> bool {
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
    fn reset(&mut self, rows: usize, cols: usize) {
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
    pub(crate) fn mul_vec(&self, v: &[Complex64]) -> Result<Vec<Complex64>, MatError> {
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

    /// Maximum absolute row sum (induced ∞-norm).
    fn inf_norm(&self) -> f64 {
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

    /// Largest singular value, by power iteration on `AᴴA`.
    fn sigma_max(&self) -> f64 {
        self.extreme_singular_value(false)
    }

    /// Smallest singular value, by inverse power iteration on `AᴴA`.
    ///
    /// Returns `0.0` if `AᴴA` is singular.
    fn sigma_min(&self) -> f64 {
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

/// A complex table kept planar — real and imaginary parts in two `f64`
/// vectors — as rows of `width` lanes, read and written a row at a time, so
/// a loop over the lanes is plain `f64` arithmetic that LLVM vectorises.
/// The fast path's lanes are the occupied subcarriers: row `i` of a table
/// holds one matrix entry (or one antenna's ramp) across the band.
#[derive(Debug, Clone, Default)]
pub struct Planar {
    re: Vec<f64>,
    im: Vec<f64>,
    width: usize,
}

/// One row of a [`Planar`] table: its real and its imaginary lanes.
pub type Lanes<'a> = (&'a [f64], &'a [f64]);

impl Planar {
    /// The table becomes `rows` rows of `width` zeros, reallocating only to
    /// grow.
    pub fn zeroed(&mut self, rows: usize, width: usize) {
        self.width = width;
        for lanes in [&mut self.re, &mut self.im] {
            lanes.clear();
            lanes.resize(rows * width, 0.0);
        }
    }

    /// Lanes per row.
    #[inline]
    pub fn width(&self) -> usize {
        self.width
    }

    /// Number of rows.
    pub fn rows(&self) -> usize {
        self.re.len().checked_div(self.width).unwrap_or(0)
    }

    /// The entry in lane `lane` of row `row`.
    #[inline]
    pub fn get(&self, row: usize, lane: usize) -> Complex64 {
        let at = row * self.width + lane;
        Complex64::new(self.re[at], self.im[at])
    }

    /// Writes `z` to lane `lane` of row `row`.
    #[inline]
    pub fn set(&mut self, row: usize, lane: usize, z: Complex64) {
        let at = row * self.width + lane;
        self.re[at] = z.re;
        self.im[at] = z.im;
    }

    /// Row `i` becomes the first `width` of `zs`.
    pub fn set_row(&mut self, i: usize, zs: impl IntoIterator<Item = Complex64>) {
        let (re, im) = self.row_mut(i);
        for ((re, im), z) in re.iter_mut().zip(im).zip(zs) {
            *re = z.re;
            *im = z.im;
        }
    }

    /// Row `i`.
    #[inline]
    pub fn row(&self, i: usize) -> Lanes<'_> {
        let n = self.width;
        (&self.re[i * n..][..n], &self.im[i * n..][..n])
    }

    /// The `count` rows from row `first` on, back to back.
    #[inline]
    pub fn rows_from(&self, first: usize, count: usize) -> Lanes<'_> {
        let (at, len) = (first * self.width, count * self.width);
        (&self.re[at..][..len], &self.im[at..][..len])
    }

    /// Row `i`, to write.
    #[inline]
    pub fn row_mut(&mut self, i: usize) -> (&mut [f64], &mut [f64]) {
        let n = self.width;
        (&mut self.re[i * n..][..n], &mut self.im[i * n..][..n])
    }

    /// Row `dst`, to write, beside row `src` (another row), to read.
    fn row_beside(&mut self, dst: usize, src: usize) -> ((&mut [f64], &mut [f64]), Lanes<'_>) {
        let n = self.width;
        let (dst_re, src_re) = two_rows(&mut self.re, dst, src, n);
        let (dst_im, src_im) = two_rows(&mut self.im, dst, src, n);
        ((dst_re, dst_im), (src_re, src_im))
    }
}

/// Rows `dst` (to write) and `src` (to read) of a table `n` lanes wide.
fn two_rows(v: &mut [f64], dst: usize, src: usize, n: usize) -> (&mut [f64], &[f64]) {
    if dst < src {
        let (head, tail) = v.split_at_mut(src * n);
        (&mut head[dst * n..][..n], &tail[..n])
    } else {
        let (head, tail) = v.split_at_mut(dst * n);
        (&mut tail[..n], &head[src * n..][..n])
    }
}

/// Right pseudo-inverse solver for zero-forcing, with the subcarriers as
/// lanes: `H` is `n_streams × n_tx` with `n_streams ≤ n_tx` (every stream
/// needs at least one antenna) on each of a band of subcarriers, and the
/// minimum-power ZF precoder is `W = Hᴴ(HHᴴ)⁻¹` on each.
///
/// Instead of forming `(HHᴴ)⁻¹` explicitly, the solver computes the Gram
/// matrix `G = HHᴴ` (Hermitian positive definite for full-rank `H`), factors
/// it as `G = LLᴴ` (Cholesky), solves `L·Y = H` and `Lᴴ·X = Y` by
/// substitution, and writes `W = Xᴴ` into the caller's table. Every stage
/// runs entry by entry with the subcarriers as [`Planar`] lanes, so each
/// inner loop is a contiguous `f64` row; per lane, the arithmetic is the
/// per-subcarrier solve's, operation for operation (Rust contracts nothing
/// into FMAs), so the weights are those of solving one subcarrier at a time,
/// bit for bit. The intermediates live in the solver, reused across calls.
#[derive(Debug, Clone)]
pub struct ZfSolver {
    n_streams: usize,
    n_tx: usize,
    /// The Gram matrix, then its Cholesky factor `L` in place: entry
    /// `(i, j)`, `j ≤ i`, in row `i · n_streams + j` (the strict upper
    /// triangle is unused).
    gram: Planar,
    /// Per lane: the largest Gram diagonal, then the Cholesky pivot floor.
    floor: Vec<f64>,
    /// Per lane: the pivot of the Cholesky column under way.
    pivot: Vec<f64>,
    /// One Cholesky entry being reduced, before its scaling.
    entry: Planar,
    /// [`ZfSolver::gram_assembly`]'s channel, as one lane.
    one_lane: Planar,
}

impl ZfSolver {
    /// Creates a solver for `n_streams × n_tx` channels (`n_streams ≤ n_tx`).
    ///
    /// # Panics
    ///
    /// Panics if `n_streams == 0`, `n_tx == 0`, or `n_streams > n_tx`.
    pub fn new(n_streams: usize, n_tx: usize) -> Self {
        let mut solver = ZfSolver {
            n_streams: 0,
            n_tx: 0,
            gram: Planar::default(),
            floor: Vec::new(),
            pivot: Vec::new(),
            entry: Planar::default(),
            one_lane: Planar::default(),
        };
        solver.reshape(n_streams, n_tx);
        solver
    }

    /// Makes this a solver for `n_streams × n_tx` channels, as
    /// [`ZfSolver::new`] would, keeping the intermediates' storage: every
    /// call sizes them afresh, so a reshaped solver solves bit for bit as a
    /// new one.
    ///
    /// # Panics
    ///
    /// Panics if `n_streams == 0`, `n_tx == 0`, or `n_streams > n_tx`.
    pub fn reshape(&mut self, n_streams: usize, n_tx: usize) {
        assert!(n_streams > 0 && n_tx > 0, "empty channel");
        assert!(
            n_streams <= n_tx,
            "zero-forcing needs n_streams ({n_streams}) <= n_tx ({n_tx})"
        );
        (self.n_streams, self.n_tx) = (n_streams, n_tx);
    }

    /// Assembles the Gram matrix `G = H·Hᴴ` of one channel matrix (lower
    /// triangle + diagonal; Hermitian) into the solver's scratch and returns
    /// the largest diagonal entry.
    ///
    /// This is the first stage of [`ZfSolver::solve`] on a single lane,
    /// split out so the benchmark suite can measure it in isolation.
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
        let mut one_lane = std::mem::take(&mut self.one_lane);
        one_lane.zeroed(n * m, 1);
        for (row, &z) in h.as_slice().iter().enumerate() {
            one_lane.set(row, 0, z);
        }
        let assembled = self.assemble(&one_lane);
        self.one_lane = one_lane;
        assembled.map(|()| self.floor[0])
    }

    /// Computes `W = H⁺ = Hᴴ(HHᴴ)⁻¹` on every lane: `h` holds entry
    /// `(stream, tx)` of `H` in row `stream · n_tx + tx`, and `w` becomes
    /// `n_tx · n_streams` rows as wide, entry `(tx, stream)` of `W` in row
    /// `tx · n_streams + stream`.
    ///
    /// Returns [`MatError::Singular`] when `H` is (numerically) rank
    /// deficient on some lane — `w` is then unspecified — and
    /// [`MatError::DimensionMismatch`] when `h` does not have the solver's
    /// `n_streams · n_tx` rows.
    pub fn solve(&mut self, h: &Planar, w: &mut Planar) -> Result<(), MatError> {
        let (n, m) = (self.n_streams, self.n_tx);
        self.assemble(h)?;
        self.factor()?;
        let gram = &self.gram;
        let lanes = h.width();
        // `X`'s entry `(i, c)` lives in row `c · n + i`, where `W`'s
        // `(c, i)` will be: the conjugation at the end is exact.
        w.zeroed(m * n, lanes);

        // Forward substitution L·Y = H (row i of Y depends on rows < i):
        // each entry of row i starts as H's and subtracts `l_ik · y_k` for
        // ascending k, then scales by `1/l_ii`.
        for i in 0..n {
            for c in 0..m {
                let (yr, yi) = w.row_mut(c * n + i);
                let (hr, hi) = h.row(i * m + c);
                yr.copy_from_slice(hr);
                yi.copy_from_slice(hi);
            }
            for k in 0..i {
                let l = gram.row(i * n + k);
                for c in 0..m {
                    let (y, y_k) = w.row_beside(c * n + i, c * n + k);
                    sub_product(y, l, y_k, [false, false]);
                }
            }
            scale_by_inverse(w, (0..m).map(|c| c * n + i), gram.row(i * n + i).0);
        }
        // Back substitution Lᴴ·X = Y in place (row i depends on rows > i),
        // the same with `conj(l_ki)` over ascending k in `i+1..n`.
        for i in (0..n).rev() {
            for k in i + 1..n {
                let l = gram.row(k * n + i);
                for c in 0..m {
                    let (x, x_k) = w.row_beside(c * n + i, c * n + k);
                    sub_product(x, l, x_k, [true, false]);
                }
            }
            scale_by_inverse(w, (0..m).map(|c| c * n + i), gram.row(i * n + i).0);
        }

        // W = Xᴴ.
        for im in &mut w.im {
            *im = -*im;
        }
        Ok(())
    }

    /// Stage one: `G = H·Hᴴ` per lane, lower triangle + diagonal, each cell
    /// the ascending-tx chain `g = h_ik · conj(h_jk) + g` of
    /// [`Complex64::mul_add`]; leaves each lane's largest diagonal in
    /// `floor`.
    fn assemble(&mut self, h: &Planar) -> Result<(), MatError> {
        let (n, m) = (self.n_streams, self.n_tx);
        if h.rows() != n * m {
            return Err(MatError::DimensionMismatch {
                left: (n * m, h.width()),
                right: (h.rows(), h.width()),
            });
        }
        let lanes = h.width();
        self.gram.zeroed(n * n, lanes);
        self.floor.clear();
        self.floor.resize(lanes, 0.0);
        for i in 0..n {
            let (hi_re, hi_im) = h.rows_from(i * m, m);
            for j in 0..=i {
                let (hj_re, hj_im) = h.rows_from(j * m, m);
                let (gr, gi) = self.gram.row_mut(i * n + j);
                let tx = (hi_re.chunks_exact(lanes).zip(hi_im.chunks_exact(lanes)))
                    .zip(hj_re.chunks_exact(lanes).zip(hj_im.chunks_exact(lanes)));
                for ((ar, ai), (br, bi)) in tx {
                    let cells = gr.iter_mut().zip(gi.iter_mut());
                    for (((gr, gi), (&ar, &ai)), (&br, &bi)) in
                        cells.zip(ar.iter().zip(ai)).zip(br.iter().zip(bi))
                    {
                        let (tr, ti) = (br, -bi);
                        *gr += ar * tr - ai * ti;
                        *gi += ar * ti + ai * tr;
                    }
                }
            }
            let (diag, _) = self.gram.row(i * n + i);
            for (f, &d) in self.floor.iter_mut().zip(diag) {
                *f = f.max(d);
            }
        }
        if self.floor.iter().any(|&f| f <= 0.0 || !f.is_finite()) {
            return Err(MatError::Singular);
        }
        Ok(())
    }

    /// Stage two: the in-place Cholesky `G → L` per lane. The pivot
    /// threshold is relative to the lane's largest diagonal (the pivots are
    /// squared singular values, so this rejects channels with 2-norm
    /// condition number ≳ 3·10⁶ — far past anything beamforming could use).
    fn factor(&mut self) -> Result<(), MatError> {
        let n = self.n_streams;
        let ZfSolver {
            gram,
            floor,
            pivot,
            entry,
            ..
        } = self;
        let lanes = gram.width();
        for f in floor.iter_mut() {
            *f *= 1e-13;
        }
        entry.zeroed(1, lanes);
        for j in 0..n {
            pivot.clear();
            pivot.extend_from_slice(gram.row(j * n + j).0);
            for k in 0..j {
                let (lr, li) = gram.row(j * n + k);
                for ((d, &r), &i) in pivot.iter_mut().zip(lr).zip(li) {
                    *d -= r * r + i * i;
                }
            }
            if pivot.iter().zip(floor.iter()).any(|(d, eps)| d <= eps) {
                return Err(MatError::Singular);
            }
            let (dr, di) = gram.row_mut(j * n + j);
            for ((dr, di), &d) in dr.iter_mut().zip(di).zip(pivot.iter()) {
                *dr = d.sqrt();
                *di = 0.0;
            }
            for i in j + 1..n {
                {
                    let (sr, si) = entry.row_mut(0);
                    let (gr, gi) = gram.row(i * n + j);
                    sr.copy_from_slice(gr);
                    si.copy_from_slice(gi);
                }
                for k in 0..j {
                    let (l_ik, l_jk) = (gram.row(i * n + k), gram.row(j * n + k));
                    sub_product(entry.row_mut(0), l_ik, l_jk, [false, true]);
                }
                // `s.scale(1/l_jj)`.
                let ((gr, gi), (ljj, _)) = gram.row_beside(i * n + j, j * n + j);
                let (sr, si) = entry.row(0);
                let lanes = gr.iter_mut().zip(gi).zip(sr.iter().zip(si)).zip(ljj);
                for (((gr, gi), (&sr, &si)), &ljj) in lanes {
                    let inv = 1.0 / ljj;
                    *gr = sr * inv;
                    *gi = si * inv;
                }
            }
        }
        Ok(())
    }
}

/// `x -= a · b` lane by lane, each lane the complex `x -= a * b` it stands
/// for, with `a` and `b` conjugated as `conj` says.
fn sub_product(
    (xr, xi): (&mut [f64], &mut [f64]),
    (ar, ai): Lanes,
    (br, bi): Lanes,
    [conj_a, conj_b]: [bool; 2],
) {
    let lanes = xr
        .iter_mut()
        .zip(xi)
        .zip(ar.iter().zip(ai))
        .zip(br.iter().zip(bi));
    for (((xr, xi), (&ar, &ai)), (&br, &bi)) in lanes {
        let ai = if conj_a { -ai } else { ai };
        let bi = if conj_b { -bi } else { bi };
        *xr -= ar * br - ai * bi;
        *xi -= ar * bi + ai * br;
    }
}

/// Rows `rows` of `x` scaled lane by lane as `z.scale(1.0 / d)`.
fn scale_by_inverse(x: &mut Planar, rows: impl Iterator<Item = usize>, d: &[f64]) {
    for row in rows {
        let (xr, xi) = x.row_mut(row);
        for ((xr, xi), &d) in xr.iter_mut().zip(xi).zip(d) {
            let inv = 1.0 / d;
            *xr *= inv;
            *xi *= inv;
        }
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

/// The reference constructions the tests check against: no program code
/// builds a diagonal matrix or forms a pseudo-inverse explicitly
/// ([`ZfSolver`] solves for the precoder instead).
#[cfg(test)]
impl CMat {
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

    /// Creates an `n × n` diagonal matrix from the given diagonal entries.
    pub fn diag(entries: &[Complex64]) -> Self {
        let n = entries.len();
        let mut m = CMat::zeros(n, n);
        for (i, &e) in entries.iter().enumerate() {
            m[(i, i)] = e;
        }
        m
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
        for (&got, &x) in b.as_slice().iter().zip(a.as_slice()) {
            assert_eq!(got, x * k);
        }
    }

    /// `hs`, one matrix per lane, as the solver's input table.
    fn stage(hs: &[CMat]) -> Planar {
        let mut h = Planar::default();
        h.zeroed(hs[0].rows() * hs[0].cols(), hs.len());
        for (lane, m) in hs.iter().enumerate() {
            for (row, &z) in m.as_slice().iter().enumerate() {
                h.set(row, lane, z);
            }
        }
        h
    }

    /// Lane `lane` of the solver's output as the `n_tx × n_streams` matrix.
    fn unstage(w: &Planar, lane: usize, n_tx: usize, n_streams: usize) -> CMat {
        let data = (0..n_tx * n_streams).map(|row| w.get(row, lane)).collect();
        CMat::from_vec(n_tx, n_streams, data)
    }

    #[test]
    fn zf_solver_matches_pseudo_inverse() {
        for seed in 1..8u64 {
            for &(rows, cols) in &[(2usize, 4usize), (3, 3), (4, 10), (1, 2)] {
                let hs: Vec<CMat> = (0..3)
                    .map(|lane| {
                        random_like(
                            rows,
                            cols,
                            seed * 100 + lane * 7 + rows as u64 * 10 + cols as u64,
                        )
                    })
                    .collect();
                let mut solver = ZfSolver::new(rows, cols);
                let mut w = Planar::default();
                solver.solve(&stage(&hs), &mut w).expect("full-rank random");
                assert_eq!((w.rows(), w.width()), (cols * rows, 3));
                for (lane, h) in hs.iter().enumerate() {
                    let w = unstage(&w, lane, cols, rows);
                    let reference = h.pseudo_inverse().unwrap();
                    for (x, y) in w.as_slice().iter().zip(reference.as_slice()) {
                        assert!((*x - *y).abs() < 1e-9, "{rows}x{cols} seed {seed}");
                    }
                    // And it is a true right inverse.
                    assert!(h.mul_mat(&w).unwrap().is_identity(1e-9));
                }
            }
        }
    }

    #[test]
    fn zf_solver_reuse_across_calls() {
        // One solver, bands of 1 to 19 lanes: nothing of an earlier call
        // leaks into a later one.
        let mut solver = ZfSolver::new(3, 6);
        let mut w = Planar::default();
        for seed in 1..20u64 {
            let hs: Vec<CMat> = (0..seed)
                .map(|lane| random_like(3, 6, 1000 * seed + lane))
                .collect();
            solver.solve(&stage(&hs), &mut w).unwrap();
            for (lane, h) in hs.iter().enumerate() {
                let w = unstage(&w, lane, 6, 3);
                assert!(h.mul_mat(&w).unwrap().is_identity(1e-9), "seed {seed}");
            }
        }
    }

    #[test]
    fn zf_solver_rejects_rank_deficient() {
        // Rank-1 2×2 (the channel two co-located clients would produce),
        // on the middle lane of three.
        let rank1 = CMat::from_rows(&[&[c(1.0, 0.0), c(1.0, 0.0)], &[c(1.0, 0.0), c(1.0, 0.0)]]);
        let band = [random_like(2, 2, 1), rank1, random_like(2, 2, 2)];
        let mut solver = ZfSolver::new(2, 2);
        let mut w = Planar::default();
        assert_eq!(solver.solve(&stage(&band), &mut w), Err(MatError::Singular));
        // All-zero channel.
        let z = CMat::zeros(2, 3);
        let mut solver = ZfSolver::new(2, 3);
        assert_eq!(
            solver.solve(&stage(std::slice::from_ref(&z)), &mut w),
            Err(MatError::Singular)
        );
        assert_eq!(solver.gram_assembly(&z), Err(MatError::Singular));
    }

    #[test]
    fn zf_solver_shape_mismatch() {
        let mut solver = ZfSolver::new(2, 4);
        let mut w = Planar::default();
        let h = random_like(3, 4, 1);
        assert!(matches!(
            solver.solve(&stage(std::slice::from_ref(&h)), &mut w),
            Err(MatError::DimensionMismatch { .. })
        ));
        assert!(matches!(
            solver.gram_assembly(&h),
            Err(MatError::DimensionMismatch { .. })
        ));
    }

    #[test]
    fn gram_assembly_returns_the_largest_diagonal() {
        // The benchmark's one-lane probe: max_i Σ_k |h_ik|², summed in
        // ascending k as the naive triple loop does.
        let h = random_like(10, 10, 77);
        let naive = (0..10)
            .map(|i| h.row(i).iter().fold(0.0, |acc, z| z.norm_sqr() + acc))
            .fold(0.0, f64::max);
        let mut solver = ZfSolver::new(10, 10);
        assert_eq!(solver.gram_assembly(&h).unwrap().to_bits(), naive.to_bits());
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
