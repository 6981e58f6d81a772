//! Minimal dense linear algebra: just enough for Gaussian-process
//! regression (symmetric positive-definite systems via Cholesky).

use std::fmt;

/// A dense row-major matrix of `f64`.
#[derive(Debug, Clone, PartialEq)]
pub struct Matrix {
    rows: usize,
    cols: usize,
    data: Vec<f64>,
}

impl Matrix {
    /// Creates a zero matrix.
    ///
    /// # Panics
    ///
    /// Panics if either dimension is zero.
    pub fn zeros(rows: usize, cols: usize) -> Self {
        assert!(rows > 0 && cols > 0, "matrix dimensions must be positive");
        Matrix {
            rows,
            cols,
            data: vec![0.0; rows * cols],
        }
    }

    /// Creates a matrix by evaluating `f(row, col)` everywhere.
    pub fn from_fn(rows: usize, cols: usize, mut f: impl FnMut(usize, usize) -> f64) -> Self {
        let mut m = Matrix::zeros(rows, cols);
        for r in 0..rows {
            for c in 0..cols {
                m.data[r * cols + c] = f(r, c);
            }
        }
        m
    }

    /// The identity matrix of size `n`.
    pub fn identity(n: usize) -> Self {
        Matrix::from_fn(n, n, |r, c| if r == c { 1.0 } else { 0.0 })
    }

    /// Number of rows.
    pub fn rows(&self) -> usize {
        self.rows
    }

    /// Number of columns.
    pub fn cols(&self) -> usize {
        self.cols
    }

    /// Reads entry `(r, c)`.
    ///
    /// # Panics
    ///
    /// Panics if out of bounds.
    pub fn get(&self, r: usize, c: usize) -> f64 {
        assert!(r < self.rows && c < self.cols, "index out of bounds");
        self.data[r * self.cols + c]
    }

    /// Writes entry `(r, c)`.
    ///
    /// # Panics
    ///
    /// Panics if out of bounds.
    pub fn set(&mut self, r: usize, c: usize, v: f64) {
        assert!(r < self.rows && c < self.cols, "index out of bounds");
        self.data[r * self.cols + c] = v;
    }

    /// True if `|self - other|` is entrywise below `tol`.
    pub fn approx_eq(&self, other: &Matrix, tol: f64) -> bool {
        self.rows == other.rows
            && self.cols == other.cols
            && self
                .data
                .iter()
                .zip(&other.data)
                .all(|(a, b)| (a - b).abs() <= tol)
    }
}

impl fmt::Display for Matrix {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        for r in 0..self.rows {
            for c in 0..self.cols {
                write!(f, "{:10.4} ", self.get(r, c))?;
            }
            writeln!(f)?;
        }
        Ok(())
    }
}

/// Error returned when a matrix is not (numerically) positive definite.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct NotPositiveDefinite;

impl fmt::Display for NotPositiveDefinite {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str("matrix is not positive definite")
    }
}

impl std::error::Error for NotPositiveDefinite {}

/// Cholesky factorization `A = L Lᵀ` of a symmetric positive-definite
/// matrix, with solvers for `A x = b`.
///
/// The factor is stored as a packed row-major lower triangle (row `i`
/// holds `i + 1` entries, diagonal last), which makes the rank-1
/// [`Cholesky::extend`] an `O(n²)` append instead of an `O(n³)`
/// refactorization — the GP surrogate grows by one observation per BO
/// iteration, and only the new row of `L` actually changes.
///
/// # Example
///
/// ```
/// use bayesopt::linalg::{Cholesky, Matrix};
///
/// let a = Matrix::from_fn(2, 2, |r, c| if r == c { 2.0 } else { 0.5 });
/// let chol = Cholesky::new(&a).unwrap();
/// let x = chol.solve(&[1.0, 1.0]);
/// // A x = b, row by row.
/// assert!((2.0 * x[0] + 0.5 * x[1] - 1.0).abs() < 1e-12);
/// assert!((0.5 * x[0] + 2.0 * x[1] - 1.0).abs() < 1e-12);
/// ```
#[derive(Debug, Clone)]
pub struct Cholesky {
    n: usize,
    /// Packed lower triangle of `L`: row `i` occupies
    /// `data[i(i+1)/2 .. i(i+1)/2 + i + 1]`.
    data: Vec<f64>,
}

#[inline]
fn row_start(i: usize) -> usize {
    i * (i + 1) / 2
}

impl Cholesky {
    /// Factorizes `a`.
    ///
    /// # Errors
    ///
    /// Returns [`NotPositiveDefinite`] if a pivot is not strictly positive
    /// (the usual fix in GP code is to add jitter to the diagonal).
    ///
    /// # Panics
    ///
    /// Panics if `a` is not square.
    pub fn new(a: &Matrix) -> Result<Self, NotPositiveDefinite> {
        assert_eq!(a.rows(), a.cols(), "Cholesky needs a square matrix");
        let n = a.rows();
        let mut data = vec![0.0; row_start(n)];
        for i in 0..n {
            let ri = row_start(i);
            for j in 0..=i {
                let rj = row_start(j);
                let mut sum = a.get(i, j);
                for k in 0..j {
                    sum -= data[ri + k] * data[rj + k];
                }
                if i == j {
                    if sum <= 0.0 || !sum.is_finite() {
                        return Err(NotPositiveDefinite);
                    }
                    data[ri + j] = sum.sqrt();
                } else {
                    data[ri + j] = sum / data[rj + j];
                }
            }
        }
        Ok(Cholesky { n, data })
    }

    /// Factorizes a symmetric matrix given as a packed row-major lower
    /// triangle (row `i` holds entries `(i,0) … (i,i)`, the same layout the
    /// factor uses). Reads exactly the entries [`Cholesky::new`] reads from
    /// a dense [`Matrix`], in the same order, so the two constructors are
    /// bit-identical on the same data.
    ///
    /// # Errors
    ///
    /// Returns [`NotPositiveDefinite`] like [`Cholesky::new`].
    ///
    /// # Panics
    ///
    /// Panics if `a.len() != n(n+1)/2`.
    pub fn new_packed(n: usize, a: &[f64]) -> Result<Self, NotPositiveDefinite> {
        assert_eq!(
            a.len(),
            row_start(n),
            "packed triangle has n(n+1)/2 entries"
        );
        let mut data = vec![0.0; row_start(n)];
        for i in 0..n {
            let ri = row_start(i);
            for j in 0..=i {
                let rj = row_start(j);
                let mut sum = a[ri + j];
                for k in 0..j {
                    sum -= data[ri + k] * data[rj + k];
                }
                if i == j {
                    if sum <= 0.0 || !sum.is_finite() {
                        return Err(NotPositiveDefinite);
                    }
                    data[ri + j] = sum.sqrt();
                } else {
                    data[ri + j] = sum / data[rj + j];
                }
            }
        }
        Ok(Cholesky { n, data })
    }

    /// Appends one row/column to the factored matrix: given the new row
    /// `[A_{n,0}, …, A_{n,n-1}, A_{n,n}]` of the extended `A`, computes the
    /// matching row of `L` in `O(n²)` by forward substitution. The
    /// existing factor is untouched (the leading block of `L` depends only
    /// on the leading block of `A`), so the result is *bit-identical* to
    /// refactorizing the extended matrix from scratch.
    ///
    /// # Errors
    ///
    /// Returns [`NotPositiveDefinite`] if the new diagonal pivot is not
    /// strictly positive; the factor is left unchanged.
    ///
    /// # Panics
    ///
    /// Panics if `row.len() != dim() + 1`.
    pub fn extend(&mut self, row: &[f64]) -> Result<(), NotPositiveDefinite> {
        let n = self.n;
        assert_eq!(row.len(), n + 1, "extend needs a row of dim() + 1 entries");
        let base = row_start(n);
        self.data.reserve(n + 1);
        for j in 0..=n {
            let rj = row_start(j);
            let mut sum = row[j];
            for k in 0..j {
                sum -= self.data[base + k] * self.data[rj + k];
            }
            if j == n {
                if sum <= 0.0 || !sum.is_finite() {
                    self.data.truncate(base);
                    return Err(NotPositiveDefinite);
                }
                self.data.push(sum.sqrt());
            } else {
                self.data.push(sum / self.data[rj + j]);
            }
        }
        self.n = n + 1;
        Ok(())
    }

    /// Dimension of the factored matrix.
    pub fn dim(&self) -> usize {
        self.n
    }

    /// The lower-triangular factor `L`, materialized as a dense matrix.
    pub fn l(&self) -> Matrix {
        Matrix::from_fn(self.n, self.n, |r, c| {
            if c <= r {
                self.data[row_start(r) + c]
            } else {
                0.0
            }
        })
    }

    /// Solves `L y = b` by forward substitution.
    ///
    /// # Panics
    ///
    /// Panics if `b.len() != dim()`.
    pub fn solve_lower(&self, b: &[f64]) -> Vec<f64> {
        let mut y = Vec::new();
        self.solve_lower_into(b, &mut y);
        y
    }

    /// [`Self::solve_lower`] into a caller-owned buffer, so hot loops
    /// (batched GP prediction scores thousands of candidates per suggest)
    /// allocate once instead of once per solve.
    ///
    /// # Panics
    ///
    /// Panics if `b.len() != dim()`.
    pub fn solve_lower_into(&self, b: &[f64], y: &mut Vec<f64>) {
        let n = self.n;
        assert_eq!(b.len(), n, "dimension mismatch");
        y.clear();
        y.resize(n, 0.0);
        for i in 0..n {
            let ri = row_start(i);
            let mut sum = b[i];
            for k in 0..i {
                sum -= self.data[ri + k] * y[k];
            }
            y[i] = sum / self.data[ri + i];
        }
    }

    /// Solves `L Y = B` for `width` right-hand sides at once, with `b` and
    /// `y` stored row-major (`b[i * width + c]` is entry `i` of RHS `c`).
    ///
    /// Performs, per RHS, exactly the operations of [`Self::solve_lower`]
    /// in the same order — the results are bit-identical — but interleaves
    /// the independent columns so the forward-substitution division chain
    /// pipelines and vectorizes instead of serializing on one divide per
    /// row. On the batched acquisition-scoring pass this is the difference
    /// between latency-bound and throughput-bound.
    ///
    /// # Panics
    ///
    /// Panics if `width == 0` or `b.len() != dim() * width`.
    pub fn solve_lower_multi_into(&self, b: &[f64], width: usize, y: &mut Vec<f64>) {
        assert!(width > 0, "need at least one right-hand side");
        assert_eq!(b.len(), self.n * width, "dimension mismatch");
        // Compile-time width lets the column loops fully unroll; 8 is
        // the block width the GP scoring pass uses.
        match width {
            8 => self.solve_lower_multi_const::<8>(b, y),
            4 => self.solve_lower_multi_const::<4>(b, y),
            _ => self.solve_lower_multi_dyn(b, width, y),
        }
    }

    fn solve_lower_multi_const<const W: usize>(&self, b: &[f64], y: &mut Vec<f64>) {
        let n = self.n;
        y.clear();
        y.resize(n * W, 0.0);
        for i in 0..n {
            let ri = row_start(i);
            let (done, rest) = y.split_at_mut(i * W);
            let yi: &mut [f64] = &mut rest[..W];
            yi.copy_from_slice(&b[i * W..(i + 1) * W]);
            for k in 0..i {
                let l = self.data[ri + k];
                let yk = &done[k * W..(k + 1) * W];
                for c in 0..W {
                    yi[c] -= l * yk[c];
                }
            }
            let d = self.data[ri + i];
            for v in yi.iter_mut() {
                *v /= d;
            }
        }
    }

    fn solve_lower_multi_dyn(&self, b: &[f64], width: usize, y: &mut Vec<f64>) {
        let n = self.n;
        y.clear();
        y.resize(n * width, 0.0);
        for i in 0..n {
            let ri = row_start(i);
            let (done, rest) = y.split_at_mut(i * width);
            let yi = &mut rest[..width];
            yi.copy_from_slice(&b[i * width..(i + 1) * width]);
            for k in 0..i {
                let l = self.data[ri + k];
                let yk = &done[k * width..(k + 1) * width];
                for c in 0..width {
                    yi[c] -= l * yk[c];
                }
            }
            let d = self.data[ri + i];
            for v in yi.iter_mut() {
                *v /= d;
            }
        }
    }

    /// Solves `Lᵀ x = y` by back substitution.
    ///
    /// # Panics
    ///
    /// Panics if `y.len() != dim()`.
    pub fn solve_upper(&self, y: &[f64]) -> Vec<f64> {
        let mut x = Vec::new();
        self.solve_upper_into(y, &mut x);
        x
    }

    /// [`Self::solve_upper`] into a caller-owned buffer.
    ///
    /// # Panics
    ///
    /// Panics if `y.len() != dim()`.
    pub fn solve_upper_into(&self, y: &[f64], x: &mut Vec<f64>) {
        let n = self.n;
        assert_eq!(y.len(), n, "dimension mismatch");
        x.clear();
        x.resize(n, 0.0);
        for i in (0..n).rev() {
            let mut sum = y[i];
            for (k, xk) in x.iter().enumerate().skip(i + 1) {
                sum -= self.data[row_start(k) + i] * xk;
            }
            x[i] = sum / self.data[row_start(i) + i];
        }
    }

    /// Solves `A x = b` (i.e. `L Lᵀ x = b`).
    pub fn solve(&self, b: &[f64]) -> Vec<f64> {
        self.solve_upper(&self.solve_lower(b))
    }

    /// `log |A|`, cheap from the factor's diagonal.
    pub fn log_det(&self) -> f64 {
        (0..self.n)
            .map(|i| self.data[row_start(i) + i].ln())
            .sum::<f64>()
            * 2.0
    }
}

/// Dot product of two equal-length slices.
///
/// # Panics
///
/// Panics if the lengths differ.
pub fn dot(a: &[f64], b: &[f64]) -> f64 {
    assert_eq!(a.len(), b.len(), "dimension mismatch");
    a.iter().zip(b).map(|(x, y)| x * y).sum()
}

/// Euclidean distance between two equal-length points.
///
/// # Panics
///
/// Panics if the lengths differ.
pub fn euclidean(a: &[f64], b: &[f64]) -> f64 {
    assert_eq!(a.len(), b.len(), "dimension mismatch");
    a.iter()
        .zip(b)
        .map(|(x, y)| (x - y) * (x - y))
        .sum::<f64>()
        .sqrt()
}

#[cfg(test)]
mod tests {
    use super::*;
    use simcore::check::{self, f64s, vec as cvec};
    use simcore::prop_assert;

    #[test]
    fn identity_solves_trivially() {
        let chol = Cholesky::new(&Matrix::identity(3)).unwrap();
        let x = chol.solve(&[1.0, 2.0, 3.0]);
        assert_eq!(x, vec![1.0, 2.0, 3.0]);
        assert!((chol.log_det()).abs() < 1e-12);
    }

    #[test]
    fn known_factorization() {
        // A = [[4, 2], [2, 3]] => L = [[2, 0], [1, sqrt(2)]].
        let a = Matrix::from_fn(2, 2, |r, c| [[4.0, 2.0], [2.0, 3.0]][r][c]);
        let chol = Cholesky::new(&a).unwrap();
        assert!((chol.l().get(0, 0) - 2.0).abs() < 1e-12);
        assert!((chol.l().get(1, 0) - 1.0).abs() < 1e-12);
        assert!((chol.l().get(1, 1) - 2.0_f64.sqrt()).abs() < 1e-12);
        assert!((chol.log_det() - (8.0_f64).ln()).abs() < 1e-12);
    }

    #[test]
    fn not_pd_is_an_error() {
        let a = Matrix::from_fn(2, 2, |r, c| if r == c { -1.0 } else { 0.0 });
        assert!(matches!(Cholesky::new(&a), Err(NotPositiveDefinite)));
    }

    #[test]
    fn singular_is_an_error() {
        let a = Matrix::from_fn(2, 2, |_, _| 1.0);
        assert!(Cholesky::new(&a).is_err());
    }

    #[test]
    fn helpers() {
        assert_eq!(dot(&[1.0, 2.0], &[3.0, 4.0]), 11.0);
        assert!((euclidean(&[0.0, 0.0], &[3.0, 4.0]) - 5.0).abs() < 1e-12);
    }

    #[test]
    fn display_is_nonempty() {
        assert!(!format!("{}", Matrix::identity(2)).is_empty());
    }

    /// Builds a random SPD matrix `A = B Bᵀ + n·I` from a flat seed vector.
    fn spd_from(values: &[f64], n: usize) -> Matrix {
        let b = Matrix::from_fn(n, n, |r, c| values[r * n + c]);
        Matrix::from_fn(n, n, |r, c| {
            let mut s = 0.0;
            for k in 0..n {
                s += b.get(r, k) * b.get(c, k);
            }
            s + if r == c { n as f64 } else { 0.0 }
        })
    }

    #[test]
    fn cholesky_round_trips() {
        check::check(
            "cholesky_round_trips",
            (cvec(f64s(-3.0..3.0), 16..=16), cvec(f64s(-5.0..5.0), 4..=4)),
            |(values, b)| {
                let a = spd_from(values, 4);
                let chol = Cholesky::new(&a).unwrap();
                // L Lᵀ == A
                let l = chol.l();
                let recon =
                    Matrix::from_fn(4, 4, |r, c| (0..4).map(|k| l.get(r, k) * l.get(c, k)).sum());
                prop_assert!(recon.approx_eq(&a, 1e-9));
                // A x == b after solve.
                let x = chol.solve(b);
                let back = (0..4).map(|r| (0..4).map(|c| a.get(r, c) * x[c]).sum::<f64>());
                for (u, v) in back.zip(b) {
                    prop_assert!((u - v).abs() < 1e-7, "{u} vs {v}");
                }
                Ok(())
            },
        );
    }

    #[test]
    fn extend_matches_from_scratch_bitwise() {
        check::check(
            "extend_matches_from_scratch_bitwise",
            cvec(f64s(-3.0..3.0), 25..=25),
            |values| {
                let full = spd_from(values, 5);
                // Factor the leading 4x4 block, then extend by row 4.
                let lead = Matrix::from_fn(4, 4, |r, c| full.get(r, c));
                let mut chol = Cholesky::new(&lead).unwrap();
                let row: Vec<f64> = (0..5).map(|j| full.get(4, j)).collect();
                chol.extend(&row).unwrap();
                let scratch = Cholesky::new(&full).unwrap();
                let packed: Vec<f64> = (0..5)
                    .flat_map(|r| (0..=r).map(move |c| (r, c)))
                    .map(|(r, c)| full.get(r, c))
                    .collect();
                let from_packed = Cholesky::new_packed(5, &packed).unwrap();
                // Bit-identical, not just approximately equal: the same
                // floating-point operations run in the same order.
                for r in 0..5 {
                    for c in 0..=r {
                        prop_assert!(
                            chol.l().get(r, c).to_bits() == scratch.l().get(r, c).to_bits(),
                            "L[{r}][{c}] differs: {} vs {}",
                            chol.l().get(r, c),
                            scratch.l().get(r, c)
                        );
                        prop_assert!(
                            from_packed.l().get(r, c).to_bits() == scratch.l().get(r, c).to_bits(),
                            "packed L[{r}][{c}] differs"
                        );
                    }
                }
                Ok(())
            },
        );
    }

    #[test]
    fn extend_failure_leaves_factor_unchanged() {
        let a = Matrix::identity(2);
        let mut chol = Cholesky::new(&a).unwrap();
        let before = chol.l();
        // New row makes the extended matrix singular: [1,0],[0,1],[1,0;·]
        // with diagonal 1.0 gives pivot 1 - 1 = 0.
        assert!(chol.extend(&[1.0, 0.0, 1.0]).is_err());
        assert_eq!(chol.dim(), 2);
        assert!(chol.l().approx_eq(&before, 0.0));
        // The factor still works after the failed extend.
        assert_eq!(chol.solve(&[2.0, 3.0]), vec![2.0, 3.0]);
        // And a valid extend still succeeds.
        assert!(chol.extend(&[0.5, 0.5, 2.0]).is_ok());
        assert_eq!(chol.dim(), 3);
    }

    #[test]
    fn solve_into_reuses_buffers() {
        let a = spd_from(&vec![1.0; 9], 3);
        let chol = Cholesky::new(&a).unwrap();
        let mut y = vec![99.0; 7]; // wrong size on purpose
        chol.solve_lower_into(&[1.0, 2.0, 3.0], &mut y);
        assert_eq!(y, chol.solve_lower(&[1.0, 2.0, 3.0]));
        let mut x = Vec::new();
        chol.solve_upper_into(&y, &mut x);
        assert_eq!(x, chol.solve_upper(&y));
    }

    #[test]
    fn solve_lower_multi_is_bitwise_the_scalar_solve_per_column() {
        check::check(
            "solve_lower_multi_is_bitwise_the_scalar_solve_per_column",
            (
                cvec(f64s(-2.0..2.0), 16..=16),
                cvec(f64s(-5.0..5.0), 20..=20),
            ),
            |(values, rhs)| {
                let a = spd_from(values, 4);
                let chol = Cholesky::new(&a).unwrap();
                // rhs holds 5 right-hand sides of length 4, column-major
                // per candidate: b[i * 5 + c] is entry i of RHS c.
                let mut y = Vec::new();
                chol.solve_lower_multi_into(rhs, 5, &mut y);
                for c in 0..5 {
                    let b: Vec<f64> = (0..4).map(|i| rhs[i * 5 + c]).collect();
                    let scalar = chol.solve_lower(&b);
                    for i in 0..4 {
                        prop_assert!(
                            y[i * 5 + c].to_bits() == scalar[i].to_bits(),
                            "column {c} row {i}: {} != {}",
                            y[i * 5 + c],
                            scalar[i]
                        );
                    }
                }
                Ok(())
            },
        );
    }

    #[test]
    fn solve_lower_upper_consistency() {
        check::check(
            "solve_lower_upper_consistency",
            (cvec(f64s(-2.0..2.0), 9..=9), cvec(f64s(-5.0..5.0), 3..=3)),
            |(values, b)| {
                let a = spd_from(values, 3);
                let chol = Cholesky::new(&a).unwrap();
                let y = chol.solve_lower(b);
                // L y == b
                let back: Vec<f64> = (0..3)
                    .map(|i| (0..=i).map(|k| chol.l().get(i, k) * y[k]).sum())
                    .collect();
                for (u, v) in back.iter().zip(b) {
                    prop_assert!((u - v).abs() < 1e-8);
                }
                Ok(())
            },
        );
    }
}
