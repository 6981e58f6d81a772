//! The Bayesian-optimization loop: suggest → evaluate → observe.

use simcore::rand::RngCore;
use simcore::trace::{ArgValue, Tracer, TrackId};
use simcore::SimTime;

use crate::acquisition::Acquisition;
use crate::gp::{GaussianProcess, PREDICT_BLOCK};
use crate::kernel::Kernel;
use crate::space::SampleSpace;

/// Candidates drawn, scored and discarded together by
/// [`BoOptimizer::suggest`]: a multiple of the posterior's block width,
/// large enough to amortize the per-block call, small enough that the
/// rows stay in L1.
const SCORE_BLOCK: usize = 8 * PREDICT_BLOCK;

/// Configuration of a [`BoOptimizer`].
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct BoConfig {
    /// Surrogate kernel (paper: Matérn 5/2, ℓ = 1).
    pub kernel: Kernel,
    /// Observation-noise variance of the surrogate.
    pub noise_var: f64,
    /// Acquisition function (paper: EI).
    pub acquisition: Acquisition,
    /// Global random candidates scored per suggestion.
    pub n_candidates: usize,
    /// Local perturbations of the incumbent scored per suggestion.
    pub n_local: usize,
    /// Width of the local perturbations.
    pub local_scale: f64,
    /// Has no effect: every suggestion scores the whole candidate cloud.
    /// The field stays only because the frozen `perfbench` harness still
    /// assigns it; it goes in the next change to the benchmark.
    pub prune: bool,
}

impl Default for BoConfig {
    fn default() -> Self {
        BoConfig {
            kernel: Kernel::paper_default(),
            noise_var: 2e-3,
            acquisition: Acquisition::default(),
            n_candidates: 1024,
            n_local: 256,
            local_scale: 0.15,
            prune: false,
        }
    }
}

impl BoConfig {
    /// The configuration a warm-started session refines a cached converged
    /// configuration with: the design already contains a near-optimal
    /// seed, so the acquisition pass needs only a local refinement cloud —
    /// 4× fewer candidates than the cold default. Cold (pinned) paths never
    /// use this.
    pub fn warm_default() -> Self {
        BoConfig {
            n_candidates: 256,
            n_local: 64,
            ..BoConfig::default()
        }
    }
}

/// Sequential Bayesian optimizer minimizing a black-box cost over a
/// constrained [`SampleSpace`]. See the crate docs for an example.
///
/// The GP surrogate is *persistent*: [`Self::observe`] streams each new
/// observation into it, and [`Self::suggest`] extends the existing
/// Cholesky factor by one row in `O(K²)` instead of rebuilding and
/// refitting the whole model in `O(K³)` per call.
#[derive(Debug, Clone)]
pub struct BoOptimizer<S> {
    space: S,
    config: BoConfig,
    n_initial: usize,
    /// The dataset `D` and the GP fitted to it: the one copy of every
    /// observation.
    surrogate: GaussianProcess,
    tracer: Tracer,
    trace_track: TrackId,
    trace_now: SimTime,
    /// Row-major candidate rows of the block being scored, reused across
    /// blocks and suggestions.
    block: Vec<f64>,
    /// Posterior `(mu, var)` of each row of `block`.
    posterior: Vec<(f64, f64)>,
}

impl<S: SampleSpace> BoOptimizer<S> {
    /// Creates an optimizer with no observations whose first `n_initial`
    /// suggestions are random designs (paper: 5).
    ///
    /// The optimizer records into the tracer in scope when it is built
    /// ([`simcore::trace::observe`]), on a `bo suggest` track registered
    /// here. It runs in wall time, outside the simulation clock, so trace
    /// records are stamped with the simulated time last supplied via
    /// [`Self::set_trace_now`] (typically the start of the HBO window that
    /// triggered the suggestion). Tracing never touches the RNG stream:
    /// suggestions are bit-identical with tracing on or off.
    ///
    /// # Panics
    ///
    /// Panics if the config asks for zero candidates.
    pub fn new(space: S, config: BoConfig, n_initial: usize) -> Self {
        assert!(
            config.n_candidates + config.n_local > 0,
            "need at least one candidate per suggestion"
        );
        let tracer = Tracer::current();
        BoOptimizer {
            space,
            config,
            n_initial,
            surrogate: GaussianProcess::new(config.kernel, config.noise_var),
            trace_track: tracer.register_track("bo", "bo suggest"),
            tracer,
            trace_now: SimTime::ZERO,
            block: Vec::new(),
            posterior: Vec::new(),
        }
    }

    /// Sets the simulated timestamp applied to subsequent trace records.
    pub fn set_trace_now(&mut self, now: SimTime) {
        self.trace_now = now;
    }

    /// The sample space.
    pub fn space(&self) -> &S {
        &self.space
    }

    /// Number of observations recorded so far.
    pub fn len(&self) -> usize {
        self.surrogate.len()
    }

    /// True if no observations have been recorded.
    pub fn is_empty(&self) -> bool {
        self.surrogate.is_empty()
    }

    /// The best (lowest-cost) observation so far; the first of tied
    /// minima.
    pub fn best(&self) -> Option<(&[f64], f64)> {
        self.surrogate.best()
    }

    /// Proposes the next point to evaluate.
    ///
    /// During the first `n_initial` calls this is a random feasible design;
    /// afterwards the GP surrogate is fitted to the history and the
    /// acquisition function is maximized over a cloud of global samples
    /// plus local perturbations of the incumbent. Falls back to random
    /// sampling if the surrogate cannot be fitted.
    ///
    /// The cloud is drawn, scored and discarded in blocks of
    /// `SCORE_BLOCK` rows: global samples first, then local perturbations,
    /// in index order, so the RNG stream is the one a fully materialized
    /// cloud would consume. A running strict argmax keeps the first of
    /// tied maxima (and the first candidate if its score is NaN).
    pub fn suggest(&mut self, rng: &mut dyn RngCore) -> Vec<f64> {
        let (f_best, incumbent) = match self.fit_or_sample(rng) {
            Ok(fitted) => fitted,
            Err(z) => return z,
        };
        let acquisition = self.config.acquisition;
        let n_global = self.config.n_candidates;
        let total = n_global + self.config.n_local;
        let dim = self.space.dim();
        let mut chosen = vec![0.0; dim];
        let mut best_score: Option<f64> = None;
        for start in (0..total).step_by(SCORE_BLOCK) {
            let rows = (total - start).min(SCORE_BLOCK);
            self.block.resize(rows * dim, 0.0);
            for (r, row) in self.block.chunks_exact_mut(dim).enumerate() {
                if start + r < n_global {
                    self.space.sample_into(rng, row);
                } else {
                    self.space
                        .perturb_into(&incumbent, self.config.local_scale, rng, row);
                }
            }
            self.surrogate
                .predict_batch(&self.block, &mut self.posterior);
            for (row, &(mu, var)) in self.block.chunks_exact(dim).zip(&self.posterior) {
                let score = acquisition.score(mu, var, f_best);
                if best_score.is_none_or(|best| score > best) {
                    best_score = Some(score);
                    chosen.copy_from_slice(row);
                }
            }
        }
        let best_score = best_score.expect("at least one candidate per suggestion");
        self.trace_choice(total, &chosen, best_score);
        chosen
    }

    /// The stage every suggestion starts with. `Err` carries a point to
    /// return as is: a random design during the first `n_initial` calls,
    /// or a random fallback when the surrogate cannot be fitted. `Ok`
    /// carries the incumbent cost and point the candidate cloud is scored
    /// against.
    fn fit_or_sample(&mut self, rng: &mut dyn RngCore) -> Result<(f64, Vec<f64>), Vec<f64>> {
        if self.len() < self.n_initial {
            let z = self.space.sample(rng);
            self.trace_instant("random design", &z, f64::NAN);
            return Err(z);
        }
        // Refit the persistent surrogate: a no-op if nothing was observed
        // since the last suggest, an O(K²) factor extension per new
        // observation otherwise.
        let fit_ok = self.surrogate.fit().is_ok();
        self.trace_span(
            "fit",
            &[
                ("observations", ArgValue::from(self.len())),
                ("ok", ArgValue::from(u64::from(fit_ok))),
            ],
        );
        if !fit_ok {
            let z = self.space.sample(rng);
            self.trace_instant("fit fallback", &z, f64::NAN);
            return Err(z);
        }
        let (incumbent, f_best) = self.best().expect("non-empty history");
        Ok((f_best, incumbent.to_vec()))
    }

    /// Records the scored cloud's size and best acquisition value, then
    /// the chosen point.
    fn trace_choice(&self, candidates: usize, chosen: &[f64], best_score: f64) {
        self.trace_span(
            "score",
            &[
                ("candidates", ArgValue::from(candidates)),
                ("best_acq", ArgValue::from(best_score)),
            ],
        );
        self.trace_instant("chosen", chosen, best_score);
    }

    /// Emits a zero-duration span on the `bo suggest` track (no-op when the
    /// tracer is disabled).
    fn trace_span(&self, name: &str, args: &[(&'static str, ArgValue)]) {
        if self.tracer.is_enabled() {
            self.tracer.complete(
                self.trace_now,
                simcore::SimDuration::from_nanos(0),
                self.trace_track,
                "bo",
                name,
                args,
            );
        }
    }

    /// Emits an instant on the `bo suggest` track carrying the proposed
    /// point (no-op when the tracer is disabled).
    fn trace_instant(&self, name: &str, z: &[f64], acq: f64) {
        if self.tracer.is_enabled() {
            let point = z
                .iter()
                .map(|v| format!("{v:.4}"))
                .collect::<Vec<_>>()
                .join(",");
            self.tracer.instant(
                self.trace_now,
                self.trace_track,
                "bo",
                name,
                &[
                    ("point", ArgValue::from(point)),
                    ("acq", ArgValue::from(acq)),
                ],
            );
        }
    }

    /// Records the measured cost of a point (line 26 of Algorithm 1:
    /// `D ← D ∪ {(c, x, φ)}`).
    ///
    /// # Panics
    ///
    /// Panics if the point is infeasible (beyond a small tolerance), its
    /// dimension is wrong, or the cost is not finite.
    pub fn observe(&mut self, z: Vec<f64>, cost: f64) {
        assert!(cost.is_finite(), "non-finite cost: {cost}");
        assert!(
            self.space.contains(&z, 1e-6),
            "infeasible observation: {z:?}"
        );
        self.surrogate.add_observation(z, cost);
    }

    /// The persistent GP surrogate (fitted lazily by [`Self::suggest`]).
    pub fn surrogate(&self) -> &GaussianProcess {
        &self.surrogate
    }

    /// Clears the history (a fresh activation starts a new dataset `D`),
    /// including the persistent surrogate and its fitted factor.
    pub fn reset(&mut self) {
        self.surrogate = GaussianProcess::new(self.config.kernel, self.config.noise_var);
    }
}

#[cfg(test)]
impl<S: SampleSpace> BoOptimizer<S> {
    /// The unblocked reference for [`Self::suggest`]: materializes every
    /// candidate as its own point, runs one posterior pass over the whole
    /// cloud, scores it and takes [`argmax_strict`]. It emits the same
    /// trace records, and the blocked path must match it bit for bit.
    fn suggest_reference(&mut self, rng: &mut dyn RngCore) -> Vec<f64> {
        let (f_best, incumbent) = match self.fit_or_sample(rng) {
            Ok(fitted) => fitted,
            Err(z) => return z,
        };
        let total = self.config.n_candidates + self.config.n_local;
        let mut candidates = Vec::with_capacity(total);
        for i in 0..total {
            candidates.push(if i < self.config.n_candidates {
                self.space.sample(rng)
            } else {
                self.space.perturb(&incumbent, self.config.local_scale, rng)
            });
        }
        let mut posterior = Vec::new();
        self.surrogate
            .predict_batch(&candidates.concat(), &mut posterior);
        let acquisition = self.config.acquisition;
        let scores: Vec<f64> = posterior
            .into_iter()
            .map(|(mu, var)| acquisition.score(mu, var, f_best))
            .collect();
        let (best_idx, best_score) = argmax_strict(&scores);
        let chosen = candidates.swap_remove(best_idx);
        self.trace_choice(total, &chosen, best_score);
        chosen
    }
}

/// Index and value of the maximum score, keeping the *first* of tied
/// values — the tie-breaking rule the pinned suggestion streams rely on.
#[cfg(test)]
fn argmax_strict(scores: &[f64]) -> (usize, f64) {
    let mut best_idx = 0;
    for (i, score) in scores.iter().enumerate().skip(1) {
        if *score > scores[best_idx] {
            best_idx = i;
        }
    }
    (best_idx, scores[best_idx])
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::space::{BoxSpace, SimplexBoxSpace};
    use simcore::rand::SeedableRng;

    /// Random designs before the surrogate takes over (the paper's 5).
    const N_INITIAL: usize = 5;

    fn rng(seed: u64) -> simcore::rand::StdRng {
        simcore::rand::StdRng::seed_from_u64(seed)
    }

    fn run_quadratic(seed: u64, iters: usize) -> f64 {
        let space = BoxSpace::new(vec![(0.0, 1.0), (0.0, 1.0)]);
        let mut bo = BoOptimizer::new(space, BoConfig::default(), N_INITIAL);
        let mut r = rng(seed);
        for _ in 0..iters {
            let z = bo.suggest(&mut r);
            let cost = (z[0] - 0.7).powi(2) + (z[1] - 0.2).powi(2);
            bo.observe(z, cost);
        }
        bo.best().unwrap().1
    }

    #[test]
    fn minimizes_a_quadratic() {
        // BO over 25 evaluations should land close to the optimum.
        let best = run_quadratic(11, 25);
        assert!(best < 0.02, "best cost {best}");
    }

    #[test]
    fn beats_pure_random_search() {
        // With an equal budget, BO should usually beat random sampling on
        // a smooth function. Compare means over a few seeds.
        let mut bo_total = 0.0;
        let mut rand_total = 0.0;
        for seed in 0..5 {
            bo_total += run_quadratic(seed, 20);
            let space = BoxSpace::new(vec![(0.0, 1.0), (0.0, 1.0)]);
            let mut r = rng(seed + 100);
            let mut best = f64::INFINITY;
            for _ in 0..20 {
                let z = space.sample(&mut r);
                best = best.min((z[0] - 0.7).powi(2) + (z[1] - 0.2).powi(2));
            }
            rand_total += best;
        }
        assert!(
            bo_total < rand_total,
            "BO total {bo_total} should beat random {rand_total}"
        );
    }

    #[test]
    fn initial_phase_is_random_design() {
        let space = BoxSpace::new(vec![(0.0, 1.0)]);
        let mut bo = BoOptimizer::new(space, BoConfig::default(), N_INITIAL);
        let mut r = rng(0);
        for i in 0..N_INITIAL {
            let z = bo.suggest(&mut r);
            bo.observe(z, i as f64);
        }
        assert_eq!(bo.len(), 5);
    }

    #[test]
    fn works_on_the_hbo_simplex_space() {
        // Minimize a cost that prefers c ≈ (0.2, 0.3, 0.5), x ≈ 0.8.
        let space = SimplexBoxSpace::new(3, 0.2, 1.0);
        let mut bo = BoOptimizer::new(space, BoConfig::default(), N_INITIAL);
        let mut r = rng(42);
        let target = [0.2, 0.3, 0.5, 0.8];
        for _ in 0..30 {
            let z = bo.suggest(&mut r);
            let cost: f64 = z.iter().zip(&target).map(|(a, b)| (a - b) * (a - b)).sum();
            bo.observe(z, cost);
        }
        let (best, cost) = bo.best().unwrap();
        assert!(cost < 0.08, "cost {cost}, best {best:?}");
    }

    #[test]
    fn best_cost_is_monotone_in_history_prefix() {
        let space = BoxSpace::new(vec![(0.0, 1.0)]);
        let mut bo = BoOptimizer::new(space, BoConfig::default(), N_INITIAL);
        let mut r = rng(9);
        let mut best_so_far = f64::INFINITY;
        for _ in 0..15 {
            let z = bo.suggest(&mut r);
            let cost = (z[0] - 0.5).abs();
            bo.observe(z, cost);
            let reported = bo.best().unwrap().1;
            best_so_far = best_so_far.min(cost);
            assert_eq!(reported, best_so_far);
        }
    }

    #[test]
    fn tied_costs_keep_the_first_minimum_as_best() {
        let space = BoxSpace::new(vec![(0.0, 1.0)]);
        let mut bo = BoOptimizer::new(space, BoConfig::default(), N_INITIAL);
        for (z, cost) in [(0.1, 2.0), (0.4, 0.5), (0.6, 1.0), (0.8, 0.5), (0.9, 0.5)] {
            bo.observe(vec![z], cost);
        }
        assert_eq!(bo.best(), Some((&[0.4][..], 0.5)));
        assert_eq!(bo.len(), 5);
    }

    #[test]
    fn reset_clears_the_dataset() {
        let space = BoxSpace::new(vec![(0.0, 1.0)]);
        let mut bo = BoOptimizer::new(space, BoConfig::default(), N_INITIAL);
        bo.observe(vec![0.5], 1.0);
        assert!(!bo.is_empty());
        bo.reset();
        assert!(bo.is_empty());
        assert!(bo.best().is_none());
    }

    #[test]
    fn reset_clears_the_persistent_surrogate_and_reenters_random_design() {
        let space = BoxSpace::new(vec![(0.0, 1.0)]);
        let mut bo = BoOptimizer::new(space, BoConfig::default(), N_INITIAL);
        let mut r = rng(3);
        // Drive past the random-design phase so the surrogate gets fitted.
        for _ in 0..N_INITIAL + 2 {
            let z = bo.suggest(&mut r);
            let cost = (z[0] - 0.4).powi(2);
            bo.observe(z, cost);
        }
        // The surrogate is fitted as of the last surrogate-backed suggest
        // (the trailing observe streams in one not-yet-fitted point).
        bo.suggest(&mut r);
        assert!(bo.surrogate().is_fitted());
        assert_eq!(bo.surrogate().len(), bo.len());
        bo.reset();
        assert!(bo.surrogate().is_empty());
        assert!(!bo.surrogate().is_fitted());
        // Back in the random-design phase: the next suggestion is a plain
        // space sample — it consumes exactly the draws sample() would.
        let mut expected_rng = rng(77);
        let mut actual_rng = rng(77);
        let expected = BoxSpace::new(vec![(0.0, 1.0)]).sample(&mut expected_rng);
        assert_eq!(bo.suggest(&mut actual_rng), expected);
    }

    #[test]
    fn warm_default_shrinks_the_candidate_cloud() {
        let warm = BoConfig::warm_default();
        let cold = BoConfig::default();
        assert_eq!(warm.n_candidates * 4, cold.n_candidates);
        assert_eq!(warm.n_local * 4, cold.n_local);
        // Everything else matches the paper configuration.
        assert_eq!(warm.kernel, cold.kernel);
        assert_eq!(warm.acquisition, cold.acquisition);
    }

    #[test]
    fn tracing_does_not_change_suggestions_and_captures_spans() {
        use simcore::trace::observe;

        let run = |traced: bool| {
            let space = BoxSpace::new(vec![(0.0, 1.0), (0.0, 1.0)]);
            let tracer = if traced {
                Tracer::observing(true, false)
            } else {
                Tracer::disabled()
            };
            let mut bo = observe(tracer.clone(), || {
                BoOptimizer::new(space, BoConfig::default(), N_INITIAL)
            });
            let mut r = rng(17);
            let mut points = Vec::new();
            for i in 0..8 {
                bo.set_trace_now(SimTime::ZERO + simcore::SimDuration::from_millis_f64(i as f64));
                let z = bo.suggest(&mut r);
                let cost = (z[0] - 0.3).powi(2) + z[1];
                bo.observe(z.clone(), cost);
                points.push(z);
            }
            (points, tracer.snapshot().0)
        };
        let (plain, empty) = run(false);
        let (traced, buffer) = run(true);
        assert_eq!(plain, traced, "tracing must not perturb the RNG stream");
        assert!(empty.is_none());
        let buffer = buffer.expect("chrome buffering is on");
        // 5 random-design instants, then 3 surrogate suggests each emitting
        // fit span + score span + chosen instant.
        assert_eq!(buffer.records.len(), 5 + 3 * 3);
        assert!(buffer
            .records
            .iter()
            .any(|r| r.cat == "bo" && r.name == "fit"));
        assert!(buffer
            .records
            .iter()
            .any(|r| r.cat == "bo" && r.name == "chosen"));
    }

    #[test]
    #[should_panic(expected = "infeasible")]
    fn infeasible_observation_panics() {
        let space = BoxSpace::new(vec![(0.0, 1.0)]);
        let mut bo = BoOptimizer::new(space, BoConfig::default(), N_INITIAL);
        bo.observe(vec![7.0], 1.0);
    }

    #[test]
    #[should_panic(expected = "non-finite")]
    fn nan_cost_panics() {
        let space = BoxSpace::new(vec![(0.0, 1.0)]);
        let mut bo = BoOptimizer::new(space, BoConfig::default(), N_INITIAL);
        bo.observe(vec![0.5], f64::NAN);
    }

    /// A traced optimizer over `space` with `k` observations at
    /// `n_initial = 0` (so the next suggest scores a cloud) and a probe
    /// that sees its records. `constant` gives every observation cost 1.
    fn traced_history<S: SampleSpace>(
        space: S,
        config: BoConfig,
        k: usize,
        seed: u64,
        constant: bool,
    ) -> (BoOptimizer<S>, TraceProbe) {
        use simcore::rand::Rng;
        let tracer = Tracer::observing(true, false);
        let mut bo = simcore::trace::observe(tracer.clone(), || BoOptimizer::new(space, config, 0));
        let mut r = rng(seed);
        for _ in 0..k {
            let z = bo.space().sample(&mut r);
            let cost = if constant {
                1.0
            } else {
                r.gen_range(-1.0..1.0)
            };
            bo.observe(z, cost);
        }
        (bo, TraceProbe(tracer))
    }

    /// A handle on the optimizer's Chrome-buffering tracer.
    struct TraceProbe(Tracer);

    impl TraceProbe {
        /// Bits of the `best_acq` argument of the latest `score` span.
        fn last_best_acq(&self) -> u64 {
            let buffer = self.0.snapshot().0.expect("chrome buffering is on");
            let score = buffer
                .records
                .iter()
                .rev()
                .find(|r| r.name == "score")
                .expect("a score span");
            match score.args.iter().find(|(key, _)| *key == "best_acq") {
                Some((_, ArgValue::F64(v))) => v.to_bits(),
                other => panic!("best_acq missing: {other:?}"),
            }
        }
    }

    /// One suggest on the blocked path and one on the unblocked reference
    /// from the same state and RNG: (chosen bits, best_acq bits, the
    /// RNG's next word) of each.
    fn blocked_and_reference<S: SampleSpace + Clone>(
        bo: &BoOptimizer<S>,
        probe: &TraceProbe,
        seed: u64,
    ) -> [(Vec<u64>, u64, u64); 2] {
        let bits = |z: Vec<f64>| z.iter().map(|v| v.to_bits()).collect::<Vec<_>>();
        let (mut blocked, mut reference) = (bo.clone(), bo.clone());
        let (mut r_blocked, mut r_reference) = (rng(seed), rng(seed));
        let z = bits(blocked.suggest(&mut r_blocked));
        let a = (z, probe.last_best_acq(), r_blocked.next_u64());
        let z = bits(reference.suggest_reference(&mut r_reference));
        let b = (z, probe.last_best_acq(), r_reference.next_u64());
        [a, b]
    }

    fn blocked_matches_reference<S: SampleSpace + Clone>(
        space: S,
        k: usize,
        n_candidates: usize,
        n_local: usize,
        seed: u64,
    ) -> Result<(), String> {
        let acquisitions = [
            Acquisition::ExpectedImprovement { xi: 0.01 },
            Acquisition::ProbabilityOfImprovement { xi: 0.01 },
            Acquisition::LowerConfidenceBound { kappa: 2.0 },
        ];
        // The drawn cloud, then one with no local and one with no global
        // candidates.
        let clouds = [
            (n_candidates, n_local.max(usize::from(n_candidates == 0))),
            (n_candidates.max(1), 0),
            (0, n_local.max(1)),
        ];
        for acquisition in acquisitions {
            for (n_candidates, n_local) in clouds {
                let config = BoConfig {
                    acquisition,
                    n_candidates,
                    n_local,
                    ..BoConfig::default()
                };
                let (bo, probe) = traced_history(space.clone(), config, k, seed, false);
                let [blocked, reference] = blocked_and_reference(&bo, &probe, seed ^ 0x5eed);
                simcore::prop_assert!(
                    blocked == reference,
                    "{acquisition:?} cloud {n_candidates}+{n_local}: \
                     blocked {blocked:?} != reference {reference:?}"
                );
            }
        }
        Ok(())
    }

    #[test]
    fn blocked_suggest_is_bit_identical_to_the_unblocked_reference() {
        use simcore::check::{self, u64s, usizes};
        check::check(
            "blocked_suggest_is_bit_identical_to_the_unblocked_reference",
            (
                usizes(0..5),
                usizes(1..=24),
                usizes(0..=100),
                usizes(0..=60),
                u64s(0..u64::MAX),
            ),
            |&(kind, k, n_candidates, n_local, seed)| match kind {
                0 => blocked_matches_reference(
                    BoxSpace::new(vec![(0.0, 1.0), (-2.0, 2.0)]),
                    k,
                    n_candidates,
                    n_local,
                    seed,
                ),
                1 => blocked_matches_reference(
                    BoxSpace::new(vec![(0.0, 1.0), (0.5, 0.5), (-1.0, 3.0)]),
                    k,
                    n_candidates,
                    n_local,
                    seed,
                ),
                2 => blocked_matches_reference(
                    SimplexBoxSpace::new(3, 0.2, 1.0),
                    k,
                    n_candidates,
                    n_local,
                    seed,
                ),
                3 => blocked_matches_reference(
                    SimplexBoxSpace::new(4, 0.2, 1.0),
                    k,
                    n_candidates,
                    n_local,
                    seed,
                ),
                _ => blocked_matches_reference(
                    SimplexBoxSpace::new(3, 0.6, 0.6),
                    k,
                    n_candidates,
                    n_local,
                    seed,
                ),
            },
        );
    }

    #[test]
    fn tied_scores_choose_the_first_candidate() {
        // A constant-cost history standardizes to a zero-mean surrogate
        // with a ~1e-9 posterior spread, so EI rounds to 0.0 at every
        // candidate: the whole cloud ties and the first row must win —
        // the first global sample, or the first local perturbation when
        // there are no global candidates.
        let space = SimplexBoxSpace::new(3, 0.2, 1.0);
        for (n_candidates, n_local) in [(1024, 256), (0, 70)] {
            let config = BoConfig {
                n_candidates,
                n_local,
                ..BoConfig::default()
            };
            let (bo, probe) = traced_history(space.clone(), config, 6, 31, true);
            let [blocked, reference] = blocked_and_reference(&bo, &probe, 8);
            assert_eq!(blocked, reference);
            assert_eq!(blocked.1, 0.0f64.to_bits(), "every score ties at 0");
            let mut r = rng(8);
            let first = if n_candidates > 0 {
                space.sample(&mut r)
            } else {
                let incumbent = bo.best().unwrap().0.to_vec();
                space.perturb(&incumbent, config.local_scale, &mut r)
            };
            let first: Vec<u64> = first.iter().map(|v| v.to_bits()).collect();
            assert_eq!(blocked.0, first);
        }
    }

    #[test]
    fn deterministic_given_seed() {
        let run = |seed| {
            let space = SimplexBoxSpace::new(3, 0.2, 1.0);
            let mut bo = BoOptimizer::new(space, BoConfig::default(), N_INITIAL);
            let mut r = rng(seed);
            for _ in 0..10 {
                let z = bo.suggest(&mut r);
                let cost = z[0];
                bo.observe(z, cost);
            }
            bo.best().unwrap().0.to_vec()
        };
        assert_eq!(run(5), run(5));
        assert_ne!(run(5), run(6));
    }
}
