//! Just enough linear algebra for Gaussian-process regression: a packed
//! Cholesky factor of a symmetric positive-definite matrix, grown one row
//! at a time, and the triangular solves against it.

use std::fmt;

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
/// holds `i + 1` entries, diagonal last). [`Cholesky::extend`] is the only
/// way to build one: a full factorization is `n` extends from the empty
/// factor, and the GP surrogate, which grows by one observation per BO
/// iteration, appends only the new row of `L` in `O(n²)`.
#[derive(Debug, Clone, Default)]
pub(crate) struct Cholesky {
    n: usize,
    /// Packed lower triangle of `L`: row `i` occupies
    /// `data[i(i+1)/2 .. i(i+1)/2 + i + 1]`.
    data: Vec<f64>,
}

/// Index of the first entry of row `i` in a packed lower triangle.
#[inline]
pub(crate) fn row_start(i: usize) -> usize {
    i * (i + 1) / 2
}

impl Cholesky {
    /// Appends one row/column to the factored matrix: given the new row
    /// `[A_{n,0}, …, A_{n,n-1}, A_{n,n}]` of the extended `A`, computes the
    /// matching row of `L` in `O(n²)` by forward substitution. The
    /// existing factor is untouched (the leading block of `L` depends only
    /// on the leading block of `A`), so extending row by row from the
    /// empty factor is the textbook row-oriented (Cholesky–Banachiewicz)
    /// factorization, operation for operation.
    ///
    /// # Errors
    ///
    /// Returns [`NotPositiveDefinite`] if the new diagonal pivot is not
    /// strictly positive and finite; the factor is left unchanged.
    ///
    /// # Panics
    ///
    /// Panics if `row.len() != dim() + 1`.
    pub(crate) fn extend(&mut self, row: &[f64]) -> Result<(), NotPositiveDefinite> {
        let n = self.n;
        assert_eq!(row.len(), n + 1, "extend needs a row of dim() + 1 entries");
        let base = row_start(n);
        self.data.resize(base + n + 1, 0.0);
        let (done, new) = self.data.split_at_mut(base);
        for j in 0..n {
            let lj = &done[row_start(j)..=row_start(j) + j];
            let mut sum = row[j];
            for k in 0..j {
                sum -= new[k] * lj[k];
            }
            new[j] = sum / lj[j];
        }
        let mut sum = row[n];
        for v in &new[..n] {
            sum -= v * v;
        }
        if sum <= 0.0 || !sum.is_finite() {
            self.data.truncate(base);
            return Err(NotPositiveDefinite);
        }
        new[n] = sum.sqrt();
        self.n = n + 1;
        Ok(())
    }

    /// Reserves room for the factor to reach dimension `n`, so the extends
    /// up to it do not reallocate.
    pub(crate) fn reserve(&mut self, n: usize) {
        self.data
            .reserve(row_start(n).saturating_sub(self.data.len()));
    }

    /// Dimension of the factored matrix.
    pub(crate) fn dim(&self) -> usize {
        self.n
    }

    /// Solves `L y = b` by forward substitution.
    ///
    /// # Panics
    ///
    /// Panics if `b.len() != dim()`.
    pub(crate) fn solve_lower(&self, b: &[f64]) -> Vec<f64> {
        let n = self.n;
        assert_eq!(b.len(), n, "dimension mismatch");
        let mut y = vec![0.0; n];
        for i in 0..n {
            let ri = row_start(i);
            let mut sum = b[i];
            for k in 0..i {
                sum -= self.data[ri + k] * y[k];
            }
            y[i] = sum / self.data[ri + i];
        }
        y
    }

    /// Solves `L Y = B` for `W` right-hand sides at once, with `b` and `y`
    /// stored row-major (`b[i * W + c]` is entry `i` of RHS `c`), into a
    /// caller-owned buffer.
    ///
    /// Performs, per RHS, exactly the operations of [`Self::solve_lower`]
    /// in the same order — the results are bit-identical, and a column
    /// never reads another — but interleaves the independent columns so
    /// the forward-substitution division chain pipelines and vectorizes
    /// instead of serializing on one divide per row. The compile-time
    /// width lets the column loops fully unroll.
    ///
    /// # Panics
    ///
    /// Panics if `b.len() != dim() * W`.
    pub(crate) fn solve_lower_multi_into<const W: usize>(&self, b: &[f64], y: &mut Vec<f64>) {
        let n = self.n;
        assert_eq!(b.len(), n * W, "dimension mismatch");
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

    /// Solves `Lᵀ x = y` by back substitution.
    ///
    /// # Panics
    ///
    /// Panics if `y.len() != dim()`.
    pub(crate) fn solve_upper(&self, y: &[f64]) -> Vec<f64> {
        let n = self.n;
        assert_eq!(y.len(), n, "dimension mismatch");
        let mut x = vec![0.0; n];
        for i in (0..n).rev() {
            let mut sum = y[i];
            for (k, xk) in x.iter().enumerate().skip(i + 1) {
                sum -= self.data[row_start(k) + i] * xk;
            }
            x[i] = sum / self.data[row_start(i) + i];
        }
        x
    }

    /// Solves `A x = b` (i.e. `L Lᵀ x = b`).
    pub(crate) fn solve(&self, b: &[f64]) -> Vec<f64> {
        self.solve_upper(&self.solve_lower(b))
    }
}

#[cfg(test)]
impl Cholesky {
    /// Factors the `n × n` symmetric matrix with entries `a(r, c)` (read
    /// on and below the diagonal only) by `n` extends from the empty
    /// factor.
    pub(crate) fn from_fn(
        n: usize,
        a: impl Fn(usize, usize) -> f64,
    ) -> Result<Self, NotPositiveDefinite> {
        let mut chol = Cholesky::default();
        for i in 0..n {
            let row: Vec<f64> = (0..=i).map(|j| a(i, j)).collect();
            chol.extend(&row)?;
        }
        Ok(chol)
    }

    /// The factor `L` as dense rows, zero above the diagonal.
    pub(crate) fn l_dense(&self) -> Vec<Vec<f64>> {
        (0..self.n)
            .map(|r| {
                (0..self.n)
                    .map(|c| {
                        if c <= r {
                            self.data[row_start(r) + c]
                        } else {
                            0.0
                        }
                    })
                    .collect()
            })
            .collect()
    }
}

/// Dot product of two equal-length slices.
///
/// # Panics
///
/// Panics if the lengths differ.
#[cfg(test)]
pub(crate) fn dot(a: &[f64], b: &[f64]) -> f64 {
    assert_eq!(a.len(), b.len(), "dimension mismatch");
    a.iter().zip(b).map(|(x, y)| x * y).sum()
}

/// Euclidean distance between two equal-length points.
///
/// # Panics
///
/// Panics if the lengths differ.
pub(crate) fn euclidean(a: &[f64], b: &[f64]) -> f64 {
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
    use simcore::check::{self, f64s, usizes, vec as cvec};
    use simcore::prop_assert;

    /// The textbook dense Cholesky–Banachiewicz factorization of the
    /// square matrix `a`, row by row over a dense `L`: the bit-level oracle
    /// for the packed row-by-row factor.
    fn dense_cholesky(a: &[Vec<f64>]) -> Result<Vec<Vec<f64>>, NotPositiveDefinite> {
        let n = a.len();
        let mut l = vec![vec![0.0; n]; n];
        for i in 0..n {
            for j in 0..=i {
                let mut sum = a[i][j];
                for (lik, ljk) in l[i][..j].iter().zip(&l[j][..j]) {
                    sum -= lik * ljk;
                }
                if i == j {
                    if sum <= 0.0 || !sum.is_finite() {
                        return Err(NotPositiveDefinite);
                    }
                    l[i][i] = sum.sqrt();
                } else {
                    l[i][j] = sum / l[j][j];
                }
            }
        }
        Ok(l)
    }

    fn identity(r: usize, c: usize) -> f64 {
        if r == c {
            1.0
        } else {
            0.0
        }
    }

    #[test]
    fn identity_solves_trivially() {
        let chol = Cholesky::from_fn(3, identity).unwrap();
        let x = chol.solve(&[1.0, 2.0, 3.0]);
        assert_eq!(x, vec![1.0, 2.0, 3.0]);
    }

    #[test]
    fn known_factorization() {
        // A = [[4, 2], [2, 3]] => L = [[2, 0], [1, sqrt(2)]].
        let chol = Cholesky::from_fn(2, |r, c| [[4.0, 2.0], [2.0, 3.0]][r][c]).unwrap();
        let l = chol.l_dense();
        assert!((l[0][0] - 2.0).abs() < 1e-12);
        assert!((l[1][0] - 1.0).abs() < 1e-12);
        assert!((l[1][1] - 2.0_f64.sqrt()).abs() < 1e-12);
        assert_eq!(l[0][1], 0.0);
    }

    #[test]
    fn not_pd_is_an_error() {
        let a = |r, c| if r == c { -1.0 } else { 0.0 };
        assert!(matches!(Cholesky::from_fn(2, a), Err(NotPositiveDefinite)));
    }

    #[test]
    fn singular_is_an_error() {
        assert!(Cholesky::from_fn(2, |_, _| 1.0).is_err());
    }

    #[test]
    fn helpers() {
        assert_eq!(dot(&[1.0, 2.0], &[3.0, 4.0]), 11.0);
        assert!((euclidean(&[0.0, 0.0], &[3.0, 4.0]) - 5.0).abs() < 1e-12);
    }

    /// Builds a random symmetric `A = B Bᵀ + shift·I` from a flat seed
    /// vector; positive definite whenever `shift > 0`.
    fn spd_from(values: &[f64], n: usize, shift: f64) -> Vec<Vec<f64>> {
        (0..n)
            .map(|r| {
                (0..n)
                    .map(|c| {
                        let s: f64 = (0..n).map(|k| values[r * n + k] * values[c * n + k]).sum();
                        s + if r == c { shift } else { 0.0 }
                    })
                    .collect()
            })
            .collect()
    }

    #[test]
    fn cholesky_round_trips() {
        check::check(
            "cholesky_round_trips",
            (cvec(f64s(-3.0..3.0), 16..=16), cvec(f64s(-5.0..5.0), 4..=4)),
            |(values, b)| {
                let a = spd_from(values, 4, 4.0);
                let chol = Cholesky::from_fn(4, |r, c| a[r][c]).unwrap();
                // L Lᵀ == A
                let l = chol.l_dense();
                for r in 0..4 {
                    for c in 0..4 {
                        let recon: f64 = (0..4).map(|k| l[r][k] * l[c][k]).sum();
                        prop_assert!((recon - a[r][c]).abs() <= 1e-9);
                    }
                }
                // A x == b after solve.
                let x = chol.solve(b);
                let back = (0..4).map(|r| (0..4).map(|c| a[r][c] * x[c]).sum::<f64>());
                for (u, v) in back.zip(b) {
                    prop_assert!((u - v).abs() < 1e-7, "{u} vs {v}");
                }
                Ok(())
            },
        );
    }

    #[test]
    fn extend_matches_from_scratch_bitwise() {
        // Random symmetric matrices of size 1..=8 whose diagonal shift is
        // sometimes negative, so both outcomes occur: the row-by-row
        // packed factor and the dense textbook factorization must agree
        // on success or failure, and on every entry of L by to_bits (the
        // same floating-point operations run in the same order).
        check::check(
            "extend_matches_from_scratch_bitwise",
            (
                usizes(1..=8),
                cvec(f64s(-3.0..3.0), 64..=64),
                f64s(-2.0..8.0),
            ),
            |(n, values, shift)| {
                let n = *n;
                let a = spd_from(values, n, *shift);
                let packed = Cholesky::from_fn(n, |r, c| a[r][c]);
                let dense = dense_cholesky(&a);
                prop_assert!(
                    packed.is_ok() == dense.is_ok(),
                    "packed {:?} vs dense {:?}",
                    packed.as_ref().map(|_| ()),
                    dense.as_ref().map(|_| ())
                );
                if let (Ok(packed), Ok(dense)) = (packed, dense) {
                    prop_assert!(packed.dim() == n);
                    let l = packed.l_dense();
                    for r in 0..n {
                        for c in 0..=r {
                            prop_assert!(
                                l[r][c].to_bits() == dense[r][c].to_bits(),
                                "L[{r}][{c}] differs: {} vs {}",
                                l[r][c],
                                dense[r][c]
                            );
                        }
                    }
                }
                Ok(())
            },
        );
    }

    #[test]
    fn extend_failure_leaves_factor_unchanged() {
        let mut chol = Cholesky::from_fn(2, identity).unwrap();
        let before = chol.l_dense();
        // New row makes the extended matrix singular: [1,0],[0,1],[1,0;·]
        // with diagonal 1.0 gives pivot 1 - 1 = 0.
        assert!(chol.extend(&[1.0, 0.0, 1.0]).is_err());
        assert_eq!(chol.dim(), 2);
        assert_eq!(chol.l_dense(), before);
        // The factor still works after the failed extend.
        assert_eq!(chol.solve(&[2.0, 3.0]), vec![2.0, 3.0]);
        // And a valid extend still succeeds.
        assert!(chol.extend(&[0.5, 0.5, 2.0]).is_ok());
        assert_eq!(chol.dim(), 3);
    }

    #[test]
    fn solve_lower_multi_is_bitwise_the_scalar_solve_per_column() {
        /// Solves the `W` columns of `rhs` (row-major, `rhs[i * W + c]`)
        /// at once and each on its own, and compares by to_bits.
        fn agree<const W: usize>(chol: &Cholesky, rhs: &[f64]) -> Result<(), String> {
            let mut y = vec![99.0; 3]; // stale contents are overwritten
            chol.solve_lower_multi_into::<W>(rhs, &mut y);
            for c in 0..W {
                let b: Vec<f64> = (0..4).map(|i| rhs[i * W + c]).collect();
                let scalar = chol.solve_lower(&b);
                for i in 0..4 {
                    prop_assert!(
                        y[i * W + c].to_bits() == scalar[i].to_bits(),
                        "width {W}, column {c} row {i}: {} != {}",
                        y[i * W + c],
                        scalar[i]
                    );
                }
            }
            Ok(())
        }
        check::check(
            "solve_lower_multi_is_bitwise_the_scalar_solve_per_column",
            (
                cvec(f64s(-2.0..2.0), 16..=16),
                cvec(f64s(-5.0..5.0), 32..=32),
            ),
            |(values, rhs)| {
                let a = spd_from(values, 4, 4.0);
                let chol = Cholesky::from_fn(4, |r, c| a[r][c]).unwrap();
                agree::<5>(&chol, &rhs[..20])?;
                agree::<8>(&chol, rhs)
            },
        );
    }

    #[test]
    fn solve_lower_upper_consistency() {
        check::check(
            "solve_lower_upper_consistency",
            (cvec(f64s(-2.0..2.0), 9..=9), cvec(f64s(-5.0..5.0), 3..=3)),
            |(values, b)| {
                let a = spd_from(values, 3, 3.0);
                let chol = Cholesky::from_fn(3, |r, c| a[r][c]).unwrap();
                let l = chol.l_dense();
                let y = chol.solve_lower(b);
                // L y == b
                for (i, v) in b.iter().enumerate() {
                    let u: f64 = (0..=i).map(|k| l[i][k] * y[k]).sum();
                    prop_assert!((u - v).abs() < 1e-8);
                }
                // Lᵀ x == y
                let x = chol.solve_upper(&y);
                for (i, v) in y.iter().enumerate() {
                    let u: f64 = (i..3).map(|k| l[k][i] * x[k]).sum();
                    prop_assert!((u - v).abs() < 1e-8);
                }
                Ok(())
            },
        );
    }
}
