//! Gaussian-process regression (Rasmussen & Williams, Algorithm 2.1).
//!
//! The surrogate keeps one Cholesky factor of its Gram matrix and grows
//! it one observation at a time: [`GaussianProcess::fit`] extends the
//! factor by the rows it does not cover yet, and climbs a jitter ladder
//! when a pivot fails. [`GaussianProcess::predict_batch`] scores
//! candidates in fixed-width blocks against that factor.

use crate::kernel::Kernel;
use crate::linalg::{row_start, Cholesky, NotPositiveDefinite};

/// Jitter ladder added to the Gram diagonal until Cholesky succeeds.
const JITTERS: [f64; 4] = [0.0, 1e-10, 1e-8, 1e-6];

/// Candidates per block in [`GaussianProcess::predict_batch`]: wide enough
/// to hide the forward-substitution divide latency across independent
/// candidates, small enough that the cross-covariance block stays in L1.
pub(crate) const PREDICT_BLOCK: usize = 8;

/// A Gaussian-process posterior over an unknown function, built from noisy
/// observations `(z_i, y_i)`.
///
/// Targets are internally *standardized* (centered on their mean and
/// scaled by their standard deviation) before fitting, so the unit signal
/// variance of the kernel matches the data regardless of the cost scale —
/// without this, one pathological configuration with a huge cost would
/// make the surrogate useless for ranking the sane ones.
///
/// # Example
///
/// ```
/// use bayesopt::{GaussianProcess, Kernel};
///
/// let mut gp = GaussianProcess::new(Kernel::paper_default(), 1e-6);
/// for i in 0..5 {
///     let z = i as f64 / 4.0;
///     gp.add_observation(vec![z], (z - 0.5).powi(2));
/// }
/// gp.fit().unwrap();
/// // Two 1-D candidates as flat rows: z = 0.5 and z = 5.0.
/// let mut post = Vec::new();
/// gp.predict_batch(&[0.5, 5.0], &mut post);
/// let ((mu, var), (_, var_far)) = (post[0], post[1]);
/// assert!(mu < 0.1);                // near the minimum
/// assert!(var_far > 10.0 * var);    // far from data = far less certain
/// ```
#[derive(Debug, Clone)]
pub struct GaussianProcess {
    kernel: Kernel,
    noise_var: f64,
    xs: Vec<Vec<f64>>,
    ys: Vec<f64>,
    /// Packed lower-triangular pairwise Euclidean distances (diagonal
    /// included, always zero), maintained incrementally by
    /// [`Self::add_observation`]. The kernel family is stationary, so this
    /// is the only input-dependent quantity the Gram matrix needs: a row
    /// of the Gram matrix is the kernel mapped over a row of it, at every
    /// jitter rung, with no distance recomputed.
    dist: Vec<f64>,
    // Fitted state.
    /// Factor of the leading `chol.dim()` rows of the Gram matrix at rung
    /// `jitter_idx`. The model is fitted when it covers every observation.
    chol: Cholesky,
    /// Index into [`JITTERS`] of the rung the factor is built at.
    jitter_idx: usize,
    alpha: Vec<f64>,
    y_mean: f64,
    y_scale: f64,
    // Scratch buffers reused across `predict_batch` candidates.
    k_star_buf: Vec<f64>,
    v_buf: Vec<f64>,
}

impl GaussianProcess {
    /// Creates an empty GP with observation-noise variance `noise_var`.
    ///
    /// # Panics
    ///
    /// Panics if `noise_var` is negative or not finite.
    pub fn new(kernel: Kernel, noise_var: f64) -> Self {
        assert!(
            noise_var.is_finite() && noise_var >= 0.0,
            "invalid noise variance: {noise_var}"
        );
        GaussianProcess {
            kernel,
            noise_var,
            xs: Vec::new(),
            ys: Vec::new(),
            dist: Vec::new(),
            chol: Cholesky::default(),
            jitter_idx: 0,
            alpha: Vec::new(),
            y_mean: 0.0,
            y_scale: 1.0,
            k_star_buf: Vec::new(),
            v_buf: Vec::new(),
        }
    }

    /// Number of observations.
    pub fn len(&self) -> usize {
        self.xs.len()
    }

    /// True if the GP has no observations.
    pub fn is_empty(&self) -> bool {
        self.xs.is_empty()
    }

    /// Adds an observation; invalidates the fit until [`Self::fit`] is
    /// called again. The pairwise-distance cache is extended in `O(K·d)`,
    /// and the next [`Self::fit`] extends the existing Cholesky factor
    /// instead of refactorizing from scratch.
    ///
    /// # Panics
    ///
    /// Panics if `y` is not finite, or `z`'s dimension differs from the
    /// existing observations.
    pub fn add_observation(&mut self, z: Vec<f64>, y: f64) {
        assert!(y.is_finite(), "non-finite target: {y}");
        if let Some(first) = self.xs.first() {
            assert_eq!(first.len(), z.len(), "dimension mismatch");
        }
        for x in &self.xs {
            self.dist.push(Kernel::distance(x, &z));
        }
        self.dist.push(0.0);
        self.xs.push(z);
        self.ys.push(y);
    }

    /// Fits the posterior: factorizes `K + σ²_n I` and precomputes
    /// `α = (K + σ²_n I)⁻¹ (y − ȳ)`, escalating diagonal jitter if the
    /// Gram matrix is numerically singular (e.g. duplicated inputs).
    ///
    /// One loop over the jitter rungs, starting at the factor's rung,
    /// extends the factor by the rows it does not cover yet, in `O(K²)`
    /// each (the BO loop adds one point per iteration). A failed pivot
    /// moves to the next rung and restarts from the empty factor. The
    /// result is bit-identical to a from-scratch ladder from rung 0: the
    /// leading block of a Cholesky factor depends only on the leading
    /// block of the matrix, so the extended rows are exactly those a
    /// full factorization computes; and every rung below the factor's
    /// rung failed on a pivot inside the leading block it already covers,
    /// which new observations leave unchanged, so a from-scratch ladder
    /// fails those rungs again and they need no retry.
    ///
    /// # Errors
    ///
    /// Returns [`NotPositiveDefinite`] if even the largest jitter fails;
    /// the next fit then starts again from the empty factor at rung 0.
    ///
    /// # Panics
    ///
    /// Panics if there are no observations.
    pub fn fit(&mut self) -> Result<(), NotPositiveDefinite> {
        let n = self.xs.len();
        assert!(n > 0, "cannot fit a GP with no observations");
        if self.chol.dim() == n {
            return Ok(()); // nothing changed since the last fit
        }
        self.y_mean = self.ys.iter().sum::<f64>() / n as f64;
        let var = self
            .ys
            .iter()
            .map(|y| (y - self.y_mean) * (y - self.y_mean))
            .sum::<f64>()
            / n as f64;
        self.y_scale = var.sqrt().max(1e-9);

        let mut row = Vec::with_capacity(n);
        self.chol.reserve(n);
        while self.chol.dim() < n {
            // Row i of the Gram matrix at the factor's rung: the kernel
            // over row i of the cached distances, plus noise and jitter on
            // the diagonal.
            let i = self.chol.dim();
            let base = row_start(i);
            row.clear();
            row.extend(
                self.dist[base..=base + i]
                    .iter()
                    .map(|&r| self.kernel.eval_from_distance(r)),
            );
            row[i] += self.noise_var + JITTERS[self.jitter_idx];
            if self.chol.extend(&row).is_err() {
                // A from-scratch factorization fails this rung at the same
                // row: restart one rung up from the empty factor.
                self.chol = Cholesky::default();
                self.jitter_idx += 1;
                if self.jitter_idx == JITTERS.len() {
                    self.jitter_idx = 0;
                    return Err(NotPositiveDefinite);
                }
            }
        }
        let centered: Vec<f64> = self
            .ys
            .iter()
            .map(|y| (y - self.y_mean) / self.y_scale)
            .collect();
        self.alpha = self.chol.solve(&centered);
        Ok(())
    }

    /// True if the model is fitted to *all* observations and ready to
    /// predict.
    pub(crate) fn is_fitted(&self) -> bool {
        !self.xs.is_empty() && self.chol.dim() == self.xs.len()
    }

    /// Posterior mean and variance (Eq. 6 of the paper) at every candidate
    /// of `zs`, written to `out` (cleared first) in candidate order. The
    /// candidates are flat row-major rows with the dimension of the
    /// observations, so a caller scores a reused block of rows without
    /// one allocation per candidate.
    ///
    /// Bit-identical to the scalar per-point posterior the tests keep as
    /// an oracle (`predict`) — every per-candidate arithmetic operation
    /// happens in the same order — but candidates are processed in blocks
    /// of `PREDICT_BLOCK` (8): the cross-covariance block and the
    /// multi-RHS forward substitution (`Cholesky::solve_lower_multi_into`)
    /// interleave independent candidates, so the per-row divide chain that
    /// serializes the scalar solve pipelines across the block, and the
    /// `k_star` / solve buffers are reused across blocks and calls. A
    /// short last block is padded with zero distances; the solve never
    /// mixes columns, so the padding cannot change a real candidate.
    ///
    /// # Panics
    ///
    /// Panics if the GP is not fitted, or `zs.len()` is not a multiple of
    /// the observations' dimension.
    pub fn predict_batch(&mut self, zs: &[f64], out: &mut Vec<(f64, f64)>) {
        const B: usize = PREDICT_BLOCK;
        assert!(self.is_fitted(), "GP not fitted: call fit()");
        let n = self.xs.len();
        let dim = self.xs[0].len();
        assert_eq!(zs.len() % dim, 0, "dimension mismatch");
        let signal_var = self.kernel.signal_var();
        out.clear();
        for chunk in zs.chunks(B * dim) {
            let w = chunk.len() / dim;
            // Row-major n×B cross-covariance block: row i holds
            // k(x_i, z_c) for every candidate c of the chunk. Distances
            // land first and the kernel is applied in place — keeping the
            // exp-bearing kernel pass out of the distance loop lets the
            // latter vectorize.
            self.k_star_buf.clear();
            self.k_star_buf.resize(n * B, 0.0);
            for (i, x) in self.xs.iter().enumerate() {
                let row = &mut self.k_star_buf[i * B..(i + 1) * B];
                for (c, z) in chunk.chunks_exact(dim).enumerate() {
                    row[c] = Kernel::distance(x, z);
                }
            }
            self.kernel.eval_from_distance_batch(&mut self.k_star_buf);
            self.chol
                .solve_lower_multi_into::<B>(&self.k_star_buf, &mut self.v_buf);
            for c in 0..w {
                // Same accumulation order as a dot product over ascending
                // i, so the sums match the scalar path bit for bit.
                let mut k_dot_alpha = 0.0;
                let mut v_dot_v = 0.0;
                for i in 0..n {
                    k_dot_alpha += self.k_star_buf[i * B + c] * self.alpha[i];
                    let v = self.v_buf[i * B + c];
                    v_dot_v += v * v;
                }
                let mu = self.y_mean + self.y_scale * k_dot_alpha;
                let var = signal_var - v_dot_v;
                out.push((mu, (var.max(0.0)) * self.y_scale * self.y_scale));
            }
        }
    }

    /// The observation with the smallest target (the incumbent for
    /// minimization) and that target; the first of tied minima.
    pub(crate) fn best(&self) -> Option<(&[f64], f64)> {
        let (i, &y) = self
            .ys
            .iter()
            .enumerate()
            .min_by(|a, b| a.1.total_cmp(b.1))?;
        Some((&self.xs[i], y))
    }
}

#[cfg(test)]
impl GaussianProcess {
    /// Posterior mean and variance at `z` (Eq. 6 of the paper).
    ///
    /// # Panics
    ///
    /// Panics if the GP is not fitted.
    pub(crate) fn predict(&self, z: &[f64]) -> (f64, f64) {
        assert!(self.is_fitted(), "GP not fitted: call fit()");
        let k_star: Vec<f64> = self.xs.iter().map(|x| self.kernel.eval(x, z)).collect();
        let mu = self.y_mean + self.y_scale * crate::linalg::dot(&k_star, &self.alpha);
        let v = self.chol.solve_lower(&k_star);
        // k(z, z) = σ²_φ exactly for the stationary family.
        let var = self.kernel.signal_var() - crate::linalg::dot(&v, &v);
        (mu, (var.max(0.0)) * self.y_scale * self.y_scale)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn fitted_on(f: impl Fn(f64) -> f64, points: &[f64]) -> GaussianProcess {
        let mut gp = GaussianProcess::new(Kernel::paper_default(), 1e-8);
        for &z in points {
            gp.add_observation(vec![z], f(z));
        }
        gp.fit().unwrap();
        gp
    }

    #[test]
    fn interpolates_training_points() {
        let gp = fitted_on(|z| z.sin(), &[0.0, 0.5, 1.0, 1.5, 2.0]);
        for &z in &[0.0, 0.5, 1.0, 1.5, 2.0] {
            let (mu, var) = gp.predict(&[z]);
            assert!((mu - z.sin()).abs() < 1e-3, "mu({z}) = {mu}");
            assert!(var < 1e-3, "var({z}) = {var}");
        }
    }

    #[test]
    fn uncertainty_grows_away_from_data() {
        let gp = fitted_on(|z| z, &[0.0, 0.2, 0.4]);
        let (_, near) = gp.predict(&[0.2]);
        let (_, far) = gp.predict(&[4.0]);
        assert!(far > near * 100.0, "near={near}, far={far}");
        // Far from data, the mean reverts towards the prior (ȳ).
        let (mu_far, _) = gp.predict(&[100.0]);
        assert!((mu_far - 0.2).abs() < 1e-6);
    }

    #[test]
    fn duplicate_inputs_survive_via_jitter() {
        let mut gp = GaussianProcess::new(Kernel::paper_default(), 0.0);
        gp.add_observation(vec![1.0, 2.0], 3.0);
        gp.add_observation(vec![1.0, 2.0], 3.1);
        assert!(gp.fit().is_ok());
        let (mu, _) = gp.predict(&[1.0, 2.0]);
        assert!((mu - 3.05).abs() < 0.1);
    }

    #[test]
    fn best_observed_tracks_minimum() {
        let gp = fitted_on(|z| (z - 1.0).powi(2), &[0.0, 0.5, 1.0, 2.0]);
        assert_eq!(gp.best(), Some((&[1.0][..], 0.0)));
        assert_eq!(gp.len(), 4);
        assert!(!gp.is_empty());
    }

    #[test]
    #[should_panic(expected = "not fitted")]
    fn predict_before_fit_panics() {
        let mut gp = GaussianProcess::new(Kernel::paper_default(), 1e-6);
        gp.add_observation(vec![0.0], 0.0);
        gp.predict(&[0.0]);
    }

    #[test]
    #[should_panic(expected = "dimension mismatch")]
    fn mixed_dimensions_panic() {
        let mut gp = GaussianProcess::new(Kernel::paper_default(), 1e-6);
        gp.add_observation(vec![0.0], 0.0);
        gp.add_observation(vec![0.0, 1.0], 0.0);
    }

    #[test]
    fn adding_observation_invalidates_fit() {
        let mut gp = GaussianProcess::new(Kernel::paper_default(), 1e-6);
        gp.add_observation(vec![0.0], 0.0);
        gp.fit().unwrap();
        assert!(gp.is_fitted());
        gp.add_observation(vec![1.0], 1.0);
        assert!(!gp.is_fitted());
    }

    #[test]
    fn incremental_extend_agrees_with_from_scratch_refit() {
        use simcore::check::{self, f64s, usizes, vec as cvec};
        use simcore::prop_assert;
        use std::cell::Cell;
        // Random observation streams in 3-D: fit after an initial prefix,
        // then stream the rest in one at a time, refitting (= extending)
        // after each. Every fit must land on the rung a from-scratch fit
        // picks, and every posterior must equal the from-scratch one by
        // to_bits on both mean and variance. Points are drawn from a
        // coarse lattice so duplicates occur, and the first point comes
        // back once at a random place in the stream: with zero noise its
        // pivot is exactly 0, so a factor at rung 0 fails there and the
        // fit restarts from the empty factor one rung up. The cases that
        // raise the rung mid-stream are counted and must occur.
        let raised_mid_stream = Cell::new(0_usize);
        check::check(
            "incremental_extend_agrees_with_from_scratch_refit",
            (
                cvec(cvec(f64s(-4.0..4.0), 3..=3), 6..14),
                cvec(f64s(-2.0..2.0), 3..=3),
                usizes(4..14),
            ),
            |(points, query, repeat_at)| {
                let mut lattice: Vec<Vec<f64>> = points
                    .iter()
                    .map(|p| p.iter().map(|v| (v * 2.0).round() / 2.0).collect())
                    .collect();
                let repeat_at = (*repeat_at).min(lattice.len());
                lattice.insert(repeat_at, lattice[0].clone());
                let mut inc = GaussianProcess::new(Kernel::paper_default(), 0.0);
                for (i, p) in lattice.iter().take(4).enumerate() {
                    inc.add_observation(p.clone(), (i as f64 * 0.7).sin());
                }
                inc.fit().unwrap();
                let prefix_rung = inc.jitter_idx;
                for (i, p) in lattice.iter().enumerate().skip(4) {
                    inc.add_observation(p.clone(), (i as f64 * 0.7).sin());
                    inc.fit().unwrap(); // extends the factor incrementally
                    let mut scratch = GaussianProcess::new(Kernel::paper_default(), 0.0);
                    for (j, q) in lattice.iter().take(i + 1).enumerate() {
                        scratch.add_observation(q.clone(), (j as f64 * 0.7).sin());
                    }
                    scratch.fit().unwrap();
                    prop_assert!(
                        inc.jitter_idx == scratch.jitter_idx,
                        "rung diverged at n={}: {} vs {}",
                        i + 1,
                        inc.jitter_idx,
                        scratch.jitter_idx
                    );
                    let (mu_i, var_i) = inc.predict(query);
                    let (mu_s, var_s) = scratch.predict(query);
                    prop_assert!(
                        mu_i.to_bits() == mu_s.to_bits(),
                        "mean diverged at n={}: {mu_i} vs {mu_s}",
                        i + 1
                    );
                    prop_assert!(
                        var_i.to_bits() == var_s.to_bits(),
                        "variance diverged at n={}: {var_i} vs {var_s}",
                        i + 1
                    );
                }
                if inc.jitter_idx > prefix_rung {
                    raised_mid_stream.set(raised_mid_stream.get() + 1);
                }
                Ok(())
            },
        );
        assert!(
            raised_mid_stream.get() > 0,
            "no case raised the jitter rung mid-stream"
        );
    }

    #[test]
    fn incremental_extend_through_the_jitter_ladder_is_bit_identical() {
        // Duplicated inputs with zero noise force the jitter ladder; the
        // extended factor must still match a from-scratch refit exactly.
        let pts = [
            vec![0.5, 0.5],
            vec![0.5, 0.5],
            vec![1.0, 0.0],
            vec![0.5, 0.5],
            vec![0.0, 1.0],
        ];
        let mut inc = GaussianProcess::new(Kernel::paper_default(), 0.0);
        for (i, p) in pts.iter().take(3).enumerate() {
            inc.add_observation(p.clone(), i as f64);
        }
        inc.fit().unwrap();
        for (i, p) in pts.iter().enumerate().skip(3) {
            inc.add_observation(p.clone(), i as f64);
            inc.fit().unwrap();
        }
        let mut scratch = GaussianProcess::new(Kernel::paper_default(), 0.0);
        for (i, p) in pts.iter().enumerate() {
            scratch.add_observation(p.clone(), i as f64);
        }
        scratch.fit().unwrap();
        for q in [[0.3, 0.3], [0.8, 0.1], [0.5, 0.5]] {
            let (mu_i, var_i) = inc.predict(&q);
            let (mu_s, var_s) = scratch.predict(&q);
            assert_eq!(mu_i.to_bits(), mu_s.to_bits(), "mean at {q:?}");
            assert_eq!(var_i.to_bits(), var_s.to_bits(), "variance at {q:?}");
        }
    }

    #[test]
    fn predict_batch_is_bit_identical_to_predict() {
        let mut gp = GaussianProcess::new(Kernel::paper_default(), 1e-4);
        for i in 0..15 {
            let z = i as f64 * 0.3;
            gp.add_observation(vec![z, (z * 2.0).cos()], z.sin());
        }
        gp.fit().unwrap();
        // 61 candidates: seven full blocks and a partial one.
        let queries: Vec<f64> = (0..61)
            .flat_map(|i| [i as f64 * 0.07, (i as f64 * 0.11).sin()])
            .collect();
        let mut batch = vec![(f64::NAN, f64::NAN); 3]; // stale entries are cleared
        gp.predict_batch(&queries, &mut batch);
        assert_eq!(batch.len(), 61);
        for (q, &(mu_b, var_b)) in queries.chunks_exact(2).zip(&batch) {
            let (mu, var) = gp.predict(q);
            assert_eq!(mu.to_bits(), mu_b.to_bits());
            assert_eq!(var.to_bits(), var_b.to_bits());
        }
    }
}
