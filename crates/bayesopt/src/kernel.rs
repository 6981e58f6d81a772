//! Covariance kernels for the Gaussian-process surrogate.

use crate::linalg::euclidean;

/// A stationary covariance kernel `k(z, z')`.
///
/// The paper uses **Matérn with ν = 5/2** (Eq. 7) with length scale
/// `ℓ = 1`; the other members of the family (ν = 1/2, 3/2, ∞ = RBF) are
/// provided for the ablation benches.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Kernel {
    /// Matérn ν = 1/2 (exponential kernel): very rough functions.
    Matern12 {
        /// Length scale `ℓ`.
        length_scale: f64,
        /// Signal variance `σ²_φ`.
        signal_var: f64,
    },
    /// Matérn ν = 3/2.
    Matern32 {
        /// Length scale `ℓ`.
        length_scale: f64,
        /// Signal variance `σ²_φ`.
        signal_var: f64,
    },
    /// Matérn ν = 5/2 — the paper's choice (Eq. 7).
    Matern52 {
        /// Length scale `ℓ`.
        length_scale: f64,
        /// Signal variance `σ²_φ`.
        signal_var: f64,
    },
    /// Squared exponential (RBF): infinitely smooth functions.
    Rbf {
        /// Length scale `ℓ`.
        length_scale: f64,
        /// Signal variance `σ²_φ`.
        signal_var: f64,
    },
}

impl Kernel {
    /// The paper's configuration: Matérn 5/2 with `ℓ = 1`, unit signal
    /// variance.
    pub fn paper_default() -> Self {
        Kernel::Matern52 {
            length_scale: 1.0,
            signal_var: 1.0,
        }
    }

    /// The kernel's signal variance (its value at distance zero).
    pub fn signal_var(&self) -> f64 {
        match *self {
            Kernel::Matern12 { signal_var, .. }
            | Kernel::Matern32 { signal_var, .. }
            | Kernel::Matern52 { signal_var, .. }
            | Kernel::Rbf { signal_var, .. } => signal_var,
        }
    }

    /// The Euclidean distance `‖a − b‖` the stationary family is evaluated
    /// at — the kernel-independent (and hyperparameter-independent) half
    /// of evaluating the kernel.
    ///
    /// # Panics
    ///
    /// Panics if `a` and `b` have different dimensions.
    pub fn distance(a: &[f64], b: &[f64]) -> f64 {
        euclidean(a, b)
    }

    /// Evaluates the kernel in place over a slice of distances — the form
    /// the GP's blocked batch-predict path uses. Exactly
    /// `eval_from_distance` mapped over the slice, bit for bit.
    pub(crate) fn eval_from_distance_batch(&self, rs: &mut [f64]) {
        for r in rs.iter_mut() {
            *r = self.eval_from_distance(*r);
        }
    }

    /// Evaluates the kernel as a function of the Euclidean distance `r`.
    pub(crate) fn eval_from_distance(&self, r: f64) -> f64 {
        match *self {
            Kernel::Matern12 {
                length_scale: l,
                signal_var: s,
            } => s * (-r / l).exp(),
            Kernel::Matern32 {
                length_scale: l,
                signal_var: s,
            } => {
                let q = 3.0_f64.sqrt() * r / l;
                s * (1.0 + q) * (-q).exp()
            }
            Kernel::Matern52 {
                length_scale: l,
                signal_var: s,
            } => {
                // Eq. (7): σ² (1 + √5 r/ℓ + 5r²/(3ℓ²)) exp(−√5 r/ℓ).
                let q = 5.0_f64.sqrt() * r / l;
                s * (1.0 + q + 5.0 * r * r / (3.0 * l * l)) * (-q).exp()
            }
            Kernel::Rbf {
                length_scale: l,
                signal_var: s,
            } => s * (-0.5 * (r / l) * (r / l)).exp(),
        }
    }
}

#[cfg(test)]
impl Kernel {
    /// Evaluates `k(a, b)`.
    ///
    /// Every kernel in this family is *stationary*: the covariance depends
    /// on `a` and `b` only through their Euclidean distance, so `eval` is
    /// exactly [`Kernel::distance`] followed by
    /// [`Kernel::eval_from_distance`]. Callers that evaluate several
    /// kernels (or several hyperparameter settings) over the same point
    /// set should compute the distances once and reuse them — that is what
    /// the GP's cached pairwise-distance matrix does.
    ///
    /// # Panics
    ///
    /// Panics if `a` and `b` have different dimensions.
    pub(crate) fn eval(&self, a: &[f64], b: &[f64]) -> f64 {
        self.eval_from_distance(Self::distance(a, b))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use simcore::check::{self, f64s, vec as cvec};
    use simcore::prop_assert;

    const KERNELS: [Kernel; 4] = [
        Kernel::Matern12 {
            length_scale: 1.0,
            signal_var: 1.0,
        },
        Kernel::Matern32 {
            length_scale: 1.0,
            signal_var: 1.0,
        },
        Kernel::Matern52 {
            length_scale: 1.0,
            signal_var: 1.0,
        },
        Kernel::Rbf {
            length_scale: 1.0,
            signal_var: 1.0,
        },
    ];

    #[test]
    fn zero_distance_gives_signal_variance() {
        for k in KERNELS {
            assert!((k.eval(&[1.0, 2.0], &[1.0, 2.0]) - 1.0).abs() < 1e-12);
        }
        let k = Kernel::Matern52 {
            length_scale: 1.0,
            signal_var: 2.5,
        };
        assert!((k.eval_from_distance(0.0) - 2.5).abs() < 1e-12);
    }

    #[test]
    fn paper_default_matches_eq7() {
        let k = Kernel::paper_default();
        let r: f64 = 0.7;
        let expected =
            (1.0 + 5.0_f64.sqrt() * r + 5.0 * r * r / 3.0) * (-(5.0_f64.sqrt()) * r).exp();
        assert!((k.eval_from_distance(r) - expected).abs() < 1e-12);
        assert_eq!(
            k,
            Kernel::Matern52 {
                length_scale: 1.0,
                signal_var: 1.0
            }
        );
        assert_eq!(k.signal_var(), 1.0);
    }

    #[test]
    fn eval_splits_into_distance_and_eval_from_distance() {
        let a = [0.3, 1.2, -0.5];
        let b = [1.0, 0.1, 0.4];
        for k in KERNELS {
            let split = k.eval_from_distance(Kernel::distance(&a, &b));
            assert_eq!(k.eval(&a, &b).to_bits(), split.to_bits());
        }
    }

    #[test]
    fn batch_eval_is_bit_identical_to_scalar_by_default() {
        let rs: Vec<f64> = (0..64).map(|i| i as f64 * 0.05).collect();
        for k in KERNELS {
            let mut batch = rs.clone();
            k.eval_from_distance_batch(&mut batch);
            for (&r, &v) in rs.iter().zip(&batch) {
                assert_eq!(v.to_bits(), k.eval_from_distance(r).to_bits());
            }
        }
    }

    #[test]
    fn smoother_kernels_decay_slower_at_short_range() {
        // Near r = 0 the rough Matérn 1/2 drops fastest.
        let r = 0.1;
        let v12 = KERNELS[0].eval_from_distance(r);
        let v32 = KERNELS[1].eval_from_distance(r);
        let v52 = KERNELS[2].eval_from_distance(r);
        assert!(v12 < v32 && v32 < v52);
    }

    #[test]
    fn kernels_are_monotone_decreasing_and_bounded() {
        check::check(
            "kernels_are_monotone_decreasing_and_bounded",
            (f64s(0.0..10.0), f64s(0.0..10.0)),
            |&(r1, r2)| {
                let (lo, hi) = if r1 < r2 { (r1, r2) } else { (r2, r1) };
                for k in KERNELS {
                    let a = k.eval_from_distance(lo);
                    let b = k.eval_from_distance(hi);
                    prop_assert!(
                        a >= b - 1e-12,
                        "{k:?} not decreasing: k({lo})={a} < k({hi})={b}"
                    );
                    prop_assert!(a <= 1.0 + 1e-12 && b >= 0.0);
                }
                Ok(())
            },
        );
    }

    #[test]
    fn symmetric_in_arguments() {
        check::check(
            "symmetric_in_arguments",
            (cvec(f64s(-5.0..5.0), 3..=3), cvec(f64s(-5.0..5.0), 3..=3)),
            |(a, b)| {
                for k in KERNELS {
                    prop_assert!((k.eval(a, b) - k.eval(b, a)).abs() < 1e-12);
                }
                Ok(())
            },
        );
    }

    #[test]
    fn gram_matrices_are_positive_semidefinite() {
        check::check(
            "gram_matrices_are_positive_semidefinite",
            cvec(cvec(f64s(-2.0..2.0), 2..=2), 2..6),
            |points| {
                use crate::linalg::Cholesky;
                for k in KERNELS {
                    // Jittered Gram matrix must be PD for distinct-ish points.
                    let gram = Cholesky::from_fn(points.len(), |r, c| {
                        k.eval(&points[r], &points[c]) + if r == c { 1e-6 } else { 0.0 }
                    });
                    prop_assert!(gram.is_ok(), "{k:?} gram not PSD");
                }
                Ok(())
            },
        );
    }
}
