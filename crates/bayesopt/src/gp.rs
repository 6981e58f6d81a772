//! Gaussian-process regression (Rasmussen & Williams, Algorithm 2.1).

use crate::kernel::Kernel;
use crate::linalg::{Cholesky, NotPositiveDefinite};

/// Jitter ladder added to the Gram diagonal until Cholesky succeeds.
const JITTERS: [f64; 4] = [0.0, 1e-10, 1e-8, 1e-6];

/// Candidates per block in [`GaussianProcess::predict_batch`]: wide enough
/// to hide the forward-substitution divide latency across independent
/// candidates, small enough that the cross-covariance block stays in L1.
const PREDICT_BLOCK: usize = 8;

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
/// let (mu, var) = gp.predict(&[0.5]);
/// assert!(mu < 0.1);                // near the minimum
/// let (_, var_far) = gp.predict(&[5.0]);
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
    /// is the only input-dependent quantity the Gram matrix needs — the
    /// jitter ladder and every `fit_length_scale` candidate reuse it
    /// instead of recomputing `O(K²)` kernel evaluations per attempt.
    dist: Vec<f64>,
    // Fitted state.
    chol: Option<Cholesky>,
    /// Number of leading observations the factor covers. When
    /// `fitted < xs.len()`, [`Self::fit`] extends the factor by the new
    /// rows in `O(K²)` each instead of refactorizing in `O(K³)`.
    fitted: usize,
    /// Index into [`JITTERS`] of the rung the current factor was built at.
    jitter_idx: usize,
    alpha: Vec<f64>,
    /// Standardized targets `(y − ȳ)/s` cached by [`Self::fit`] and reused
    /// by [`Self::log_marginal_likelihood`].
    centered: Vec<f64>,
    y_mean: f64,
    y_scale: f64,
    // Scratch buffers reused across `predict_batch` candidates.
    k_star_buf: Vec<f64>,
    v_buf: Vec<f64>,
}

/// Index of the first entry of row `i` in a packed lower triangle.
#[inline]
fn row_start(i: usize) -> usize {
    i * (i + 1) / 2
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
            chol: None,
            fitted: 0,
            jitter_idx: 0,
            alpha: Vec::new(),
            centered: Vec::new(),
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

    /// The kernel in use.
    pub fn kernel(&self) -> &Kernel {
        &self.kernel
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

    /// The cached distance between observations `i` and `j`.
    #[inline]
    fn dist_between(&self, i: usize, j: usize) -> f64 {
        let (hi, lo) = if i >= j { (i, j) } else { (j, i) };
        self.dist[row_start(hi) + lo]
    }

    /// The Gram-matrix entry `(i, j)` at jitter rung `jitter_idx`.
    #[inline]
    fn gram_entry(&self, i: usize, j: usize, jitter: f64) -> f64 {
        self.kernel.eval_from_distance(self.dist_between(i, j))
            + if i == j { self.noise_var + jitter } else { 0.0 }
    }

    /// Fits the posterior: factorizes `K + σ²_n I` and precomputes
    /// `α = (K + σ²_n I)⁻¹ (y − ȳ)`, escalating diagonal jitter if the
    /// Gram matrix is numerically singular (e.g. duplicated inputs).
    ///
    /// When a previous fit covers a prefix of the observations (the BO
    /// loop adds one point per iteration), the factor is *extended* by the
    /// new rows in `O(K²)` each instead of refactorized in `O(K³)` — the
    /// result is bit-identical to a from-scratch fit, because the leading
    /// block of a Cholesky factor depends only on the leading block of the
    /// matrix, and a from-scratch fit fails the same low jitter rungs the
    /// prefix fit already failed (the failing pivot lives in the prefix).
    ///
    /// # Errors
    ///
    /// Returns [`NotPositiveDefinite`] if even the largest jitter fails.
    ///
    /// # Panics
    ///
    /// Panics if there are no observations.
    pub fn fit(&mut self) -> Result<(), NotPositiveDefinite> {
        let n = self.xs.len();
        assert!(n > 0, "cannot fit a GP with no observations");
        if self.fitted == n && self.chol.is_some() {
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
        self.centered.clear();
        self.centered
            .extend(self.ys.iter().map(|y| (y - self.y_mean) / self.y_scale));

        // Incremental path: extend the existing factor by the new rows at
        // the rung it was built at. A failed pivot means a from-scratch
        // fit at this rung would fail at the same row, so fall through to
        // the full ladder.
        if let Some(mut chol) = self.chol.take() {
            if self.fitted > 0 && self.fitted < n {
                let jitter = JITTERS[self.jitter_idx];
                let mut ok = true;
                for i in self.fitted..n {
                    let row: Vec<f64> = (0..=i).map(|j| self.gram_entry(i, j, jitter)).collect();
                    if chol.extend(&row).is_err() {
                        ok = false;
                        break;
                    }
                }
                if ok {
                    self.alpha = chol.solve(&self.centered);
                    self.chol = Some(chol);
                    self.fitted = n;
                    return Ok(());
                }
            }
        }

        // Full ladder: the kernel values come from the cached distances,
        // so each rung only rewrites the diagonal.
        let mut gram: Vec<f64> = self
            .dist
            .iter()
            .map(|&r| self.kernel.eval_from_distance(r))
            .collect();
        for (idx, jitter) in JITTERS.iter().enumerate() {
            let diag = self.kernel.eval_from_distance(0.0) + (self.noise_var + jitter);
            for i in 0..n {
                gram[row_start(i) + i] = diag;
            }
            if let Ok(chol) = Cholesky::new_packed(n, &gram) {
                self.alpha = chol.solve(&self.centered);
                self.chol = Some(chol);
                self.fitted = n;
                self.jitter_idx = idx;
                return Ok(());
            }
        }
        self.fitted = 0;
        Err(NotPositiveDefinite)
    }

    /// True if the model is fitted to *all* observations and ready to
    /// predict.
    pub fn is_fitted(&self) -> bool {
        self.chol.is_some() && self.fitted == self.xs.len()
    }

    /// Posterior mean and variance at `z` (Eq. 6 of the paper).
    ///
    /// # Panics
    ///
    /// Panics if the GP is not fitted.
    pub fn predict(&self, z: &[f64]) -> (f64, f64) {
        assert!(self.is_fitted(), "GP not fitted: call fit()");
        let chol = self.chol.as_ref().expect("GP not fitted: call fit()");
        let k_star: Vec<f64> = self.xs.iter().map(|x| self.kernel.eval(x, z)).collect();
        let mu = self.y_mean + self.y_scale * crate::linalg::dot(&k_star, &self.alpha);
        let v = chol.solve_lower(&k_star);
        // k(z, z) = σ²_φ exactly for the stationary family.
        let var = self.kernel.signal_var() - crate::linalg::dot(&v, &v);
        (mu, (var.max(0.0)) * self.y_scale * self.y_scale)
    }

    /// Posterior mean and variance at every point of `zs` — the batched
    /// form of [`Self::predict`] the acquisition-scoring pass uses.
    ///
    /// Bit-identical to calling `predict` per point — every per-candidate
    /// arithmetic operation happens in the same order — but candidates are
    /// processed in blocks of `PREDICT_BLOCK` (8): the cross-covariance block
    /// and the multi-RHS forward substitution
    /// ([`Cholesky::solve_lower_multi_into`]) interleave independent
    /// candidates, so the per-row divide chain that serializes the scalar
    /// solve pipelines across the block, and the `k_star` / solve buffers
    /// are allocated once for the whole batch instead of twice per
    /// candidate.
    ///
    /// # Panics
    ///
    /// Panics if the GP is not fitted.
    pub fn predict_batch<Z: AsRef<[f64]>>(&mut self, zs: &[Z]) -> Vec<(f64, f64)> {
        assert!(self.is_fitted(), "GP not fitted: call fit()");
        let chol = self.chol.as_ref().expect("GP not fitted: call fit()");
        let n = self.xs.len();
        let signal_var = self.kernel.signal_var();
        let mut out = Vec::with_capacity(zs.len());
        for chunk in zs.chunks(PREDICT_BLOCK) {
            let w = chunk.len();
            // Row-major n×w cross-covariance block: row i holds
            // k(x_i, z_c) for every candidate c of the chunk. Distances
            // land first and the kernel is applied in place — keeping the
            // exp-bearing kernel pass out of the distance loop lets the
            // latter vectorize.
            self.k_star_buf.clear();
            self.k_star_buf.resize(n * w, 0.0);
            for (i, x) in self.xs.iter().enumerate() {
                let row = &mut self.k_star_buf[i * w..(i + 1) * w];
                for (c, z) in chunk.iter().enumerate() {
                    row[c] = Kernel::distance(x, z.as_ref());
                }
            }
            self.kernel.eval_from_distance_batch(&mut self.k_star_buf);
            chol.solve_lower_multi_into(&self.k_star_buf, w, &mut self.v_buf);
            for c in 0..w {
                // Same accumulation order as linalg::dot (ascending i),
                // so the sums match the scalar path bit for bit.
                let mut k_dot_alpha = 0.0;
                let mut v_dot_v = 0.0;
                for i in 0..n {
                    k_dot_alpha += self.k_star_buf[i * w + c] * self.alpha[i];
                    let v = self.v_buf[i * w + c];
                    v_dot_v += v * v;
                }
                let mu = self.y_mean + self.y_scale * k_dot_alpha;
                let var = signal_var - v_dot_v;
                out.push((mu, (var.max(0.0)) * self.y_scale * self.y_scale));
            }
        }
        out
    }

    /// The smallest observed target (the incumbent for minimization).
    pub fn best_observed(&self) -> Option<f64> {
        self.ys.iter().copied().min_by(f64::total_cmp)
    }

    /// The log marginal likelihood of the (standardized) targets under the
    /// fitted model — Rasmussen & Williams Eq. (2.30):
    /// `−½ yᵀα − Σ log L_ii − (n/2) log 2π`. Used to compare kernel
    /// hyperparameters on the same data.
    ///
    /// # Panics
    ///
    /// Panics if the GP is not fitted.
    pub fn log_marginal_likelihood(&self) -> f64 {
        assert!(self.is_fitted(), "GP not fitted: call fit()");
        let chol = self.chol.as_ref().expect("GP not fitted: call fit()");
        let n = self.ys.len() as f64;
        // `centered` is cached by fit(), which is the only place y_mean /
        // y_scale are written — re-standardizing here would silently rely
        // on them staying in sync with the factor.
        let data_fit = -0.5 * crate::linalg::dot(&self.centered, &self.alpha);
        let complexity = -0.5 * chol.log_det();
        data_fit + complexity - 0.5 * n * (2.0 * std::f64::consts::PI).ln()
    }

    /// Refits the GP at each candidate length scale (holding the kernel
    /// family and signal variance fixed) and keeps the one maximizing the
    /// log marginal likelihood — the standard type-II MLE hyperparameter
    /// selection, on a grid for robustness.
    ///
    /// Returns the chosen length scale.
    ///
    /// # Errors
    ///
    /// Returns [`NotPositiveDefinite`] if no candidate produces a valid
    /// factorization.
    ///
    /// # Panics
    ///
    /// Panics if `candidates` is empty or the GP has no observations.
    pub fn fit_length_scale(&mut self, candidates: &[f64]) -> Result<f64, NotPositiveDefinite> {
        assert!(!candidates.is_empty(), "need candidate length scales");
        let mut best: Option<(f64, f64)> = None; // (lml, scale)
        for &scale in candidates {
            self.set_kernel(self.kernel.with_length_scale(scale));
            if self.fit().is_err() {
                continue;
            }
            let lml = self.log_marginal_likelihood();
            if best.is_none_or(|(b, _)| lml > b) {
                best = Some((lml, scale));
            }
        }
        let (_, scale) = best.ok_or(NotPositiveDefinite)?;
        self.set_kernel(self.kernel.with_length_scale(scale));
        self.fit()?;
        Ok(scale)
    }

    /// Swaps the kernel and invalidates the fitted factor — the cached
    /// pairwise distances stay valid (they are hyperparameter-free), but
    /// the Gram matrix and everything derived from it do not.
    fn set_kernel(&mut self, kernel: Kernel) {
        self.kernel = kernel;
        self.chol = None;
        self.fitted = 0;
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
        assert_eq!(gp.best_observed(), Some(0.0));
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
    fn lml_prefers_the_matching_length_scale() {
        // Data drawn from a smooth slow function: a longer length scale
        // should win over a tiny one.
        let mut gp = GaussianProcess::new(Kernel::paper_default(), 1e-4);
        for i in 0..12 {
            let z = i as f64 * 0.2;
            gp.add_observation(vec![z], (0.5 * z).sin());
        }
        let chosen = gp.fit_length_scale(&[0.05, 0.3, 1.0, 3.0]).unwrap();
        assert!(chosen >= 1.0, "chosen = {chosen}");
        assert!(gp.is_fitted());
    }

    #[test]
    fn lml_is_finite_and_comparable() {
        let mut gp = GaussianProcess::new(Kernel::paper_default(), 1e-4);
        for i in 0..6 {
            gp.add_observation(vec![i as f64], (i as f64).cos());
        }
        gp.fit().unwrap();
        let a = gp.log_marginal_likelihood();
        assert!(a.is_finite());
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

    /// Relative agreement check with an absolute floor for near-zero
    /// values (posterior variance at training points is ~0).
    fn rel_close(a: f64, b: f64, tol: f64) -> bool {
        (a - b).abs() <= tol * a.abs().max(b.abs()).max(1.0)
    }

    #[test]
    fn incremental_extend_agrees_with_from_scratch_refit() {
        use simcore::check::{self, f64s, vec as cvec};
        use simcore::prop_assert;
        // Random observation streams in 3-D: fit after an initial prefix,
        // then stream the rest in one at a time, refitting (= extending)
        // after each. Every posterior must agree with a from-scratch fit
        // to ≤1e-8 relative on both mean and variance. Points are drawn
        // from a coarse lattice so duplicates are common — which drives
        // the fit through the jitter ladder.
        check::check(
            "incremental_extend_agrees_with_from_scratch_refit",
            (
                cvec(cvec(f64s(-4.0..4.0), 3..=3), 6..14),
                cvec(f64s(-2.0..2.0), 3..=3),
            ),
            |(points, query)| {
                let lattice: Vec<Vec<f64>> = points
                    .iter()
                    .map(|p| p.iter().map(|v| (v * 2.0).round() / 2.0).collect())
                    .collect();
                let mut inc = GaussianProcess::new(Kernel::paper_default(), 0.0);
                for (i, p) in lattice.iter().take(4).enumerate() {
                    inc.add_observation(p.clone(), (i as f64 * 0.7).sin());
                }
                inc.fit().unwrap();
                for (i, p) in lattice.iter().enumerate().skip(4) {
                    inc.add_observation(p.clone(), (i as f64 * 0.7).sin());
                    inc.fit().unwrap(); // extends the factor incrementally
                    let mut scratch = GaussianProcess::new(Kernel::paper_default(), 0.0);
                    for (j, q) in lattice.iter().take(i + 1).enumerate() {
                        scratch.add_observation(q.clone(), (j as f64 * 0.7).sin());
                    }
                    scratch.fit().unwrap();
                    let (mu_i, var_i) = inc.predict(query);
                    let (mu_s, var_s) = scratch.predict(query);
                    prop_assert!(
                        rel_close(mu_i, mu_s, 1e-8),
                        "mean diverged at n={}: {mu_i} vs {mu_s}",
                        i + 1
                    );
                    prop_assert!(
                        rel_close(var_i, var_s, 1e-8),
                        "variance diverged at n={}: {var_i} vs {var_s}",
                        i + 1
                    );
                }
                Ok(())
            },
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
        let queries: Vec<Vec<f64>> = (0..64)
            .map(|i| vec![i as f64 * 0.07, (i as f64 * 0.11).sin()])
            .collect();
        let batch = gp.predict_batch(&queries);
        for (q, &(mu_b, var_b)) in queries.iter().zip(&batch) {
            let (mu, var) = gp.predict(q);
            assert_eq!(mu.to_bits(), mu_b.to_bits());
            assert_eq!(var.to_bits(), var_b.to_bits());
        }
    }

    #[test]
    fn fit_length_scale_still_works_after_incremental_fits() {
        // Interleave extends with a hyperparameter search: set_kernel must
        // invalidate the factor so stale kernels never leak into it.
        let mut gp = GaussianProcess::new(Kernel::paper_default(), 1e-4);
        for i in 0..8 {
            gp.add_observation(vec![i as f64 * 0.25], (0.4 * i as f64).sin());
        }
        gp.fit().unwrap();
        gp.add_observation(vec![2.125], 0.6);
        gp.fit().unwrap(); // incremental
        let chosen = gp.fit_length_scale(&[0.1, 1.0, 4.0]).unwrap();
        assert!(gp.is_fitted());
        assert_eq!(gp.kernel().length_scale(), chosen);
        // And extends keep working after the kernel swap.
        gp.add_observation(vec![2.375], 0.7);
        gp.fit().unwrap();
        assert!(gp.is_fitted());
        assert!(gp.predict(&[1.0]).1.is_finite());
    }
}
