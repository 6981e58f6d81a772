//! The HBO controller: Algorithm 1 wired around the Bayesian optimizer.

use bayesopt::space::{SampleSpace, SimplexBoxSpace};
use bayesopt::{BoConfig, BoOptimizer};
use nnmodel::Delegate;
use simcore::rand::RngCore;

use crate::alloc::allocate_tasks;
use crate::cost;
use crate::profile::TaskProfile;

/// What the BO cost function incorporates.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum CostMode {
    /// The full objective `φ = −(Q − w ε)` — Eq. (5).
    QualityAndLatency,
    /// Latency only (`φ = ε`), used by the BNT baseline, whose "BO's cost
    /// function solely incorporates the average latency".
    LatencyOnly,
}

/// Configuration of an [`HboController`].
#[derive(Debug, Clone, PartialEq)]
pub struct HboConfig {
    /// Latency/quality weight `w` of Eq. (3) (paper example: 2.5).
    pub w: f64,
    /// Lower bound `R_min` of the triangle ratio — Constraint (10).
    pub r_min: f64,
    /// Random configurations seeding the dataset `D` (paper: 5).
    pub n_initial: usize,
    /// BO iterations after initialization (paper: 15).
    pub iterations: usize,
    /// Cost composition.
    pub cost_mode: CostMode,
    /// When `false`, the triangle ratio is pinned at 1 (BNT "does not
    /// regulate the triangle ratio").
    pub optimize_triangles: bool,
    /// Underlying optimizer settings (kernel, acquisition, candidates).
    pub bo: BoConfig,
}

impl Default for HboConfig {
    fn default() -> Self {
        HboConfig {
            w: 2.5,
            r_min: 0.2,
            n_initial: 5,
            iterations: 15,
            cost_mode: CostMode::QualityAndLatency,
            optimize_triangles: true,
            bo: BoConfig::default(),
        }
    }
}

/// One configuration produced by the controller: the BO point `z`, its
/// `(c, x)` split, and the concrete per-task allocation derived by the
/// heuristic of lines 2–22.
#[derive(Debug, Clone, PartialEq)]
pub struct HboPoint {
    /// The raw BO input vector `z = [c₁, …, c_N, x]`.
    pub z: Vec<f64>,
    /// Resource-usage proportions `c` (sums to 1).
    pub c: Vec<f64>,
    /// Triangle-count ratio `x`.
    pub x: f64,
    /// Concrete allocation: `allocation[m]` is task `m`'s delegate.
    pub allocation: Vec<Delegate>,
}

/// One completed iteration: the configuration tested and the measured
/// outcome (lines 24–26 of Algorithm 1).
#[derive(Debug, Clone, PartialEq)]
pub struct IterationRecord {
    /// The configuration that was applied.
    pub point: HboPoint,
    /// Measured average virtual-object quality `Q`.
    pub quality: f64,
    /// Measured average normalized latency `ε`.
    pub epsilon: f64,
    /// The BO cost `φ` recorded in `D`.
    pub cost: f64,
}

/// The HBO algorithm driver for one activation: repeatedly call
/// [`HboController::next_point`], apply the configuration to the app,
/// measure `(Q, ε)` over a control period, and feed it back through
/// [`HboController::observe`]. Once [`HboController::is_done`] (after
/// `n_initial + iterations` rounds), [`HboController::best`] is "the
/// configuration that obtained the lowest cost value … used until the next
/// activation."
#[derive(Debug)]
pub struct HboController {
    profiles: Vec<TaskProfile>,
    config: HboConfig,
    bo: BoOptimizer<SimplexBoxSpace>,
    records: Vec<IterationRecord>,
}

impl HboController {
    /// Creates a controller for a taskset.
    ///
    /// # Panics
    ///
    /// Panics if `profiles` is empty or the config is inconsistent
    /// (`r_min` outside `(0, 1]`, zero iterations).
    pub fn new(profiles: Vec<TaskProfile>, config: HboConfig) -> Self {
        assert!(!profiles.is_empty(), "need at least one AI task");
        assert!(
            config.r_min > 0.0 && config.r_min <= 1.0,
            "r_min out of range: {}",
            config.r_min
        );
        assert!(
            config.n_initial + config.iterations > 0,
            "need at least one iteration"
        );
        let (x_lo, x_hi) = if config.optimize_triangles {
            (config.r_min, 1.0)
        } else {
            (1.0, 1.0)
        };
        // The search simplex only gains the edge dimension when some task
        // can actually offload; an on-device-only taskset keeps the
        // paper's 3-resource space (and its exact RNG stream), so every
        // seeded on-device result is unchanged by the edge extension.
        let n_resources = if profiles.iter().any(|p| p.supports(Delegate::Edge)) {
            Delegate::COUNT
        } else {
            Delegate::COUNT - 1
        };
        let space = SimplexBoxSpace::new(n_resources, x_lo, x_hi);
        HboController {
            bo: BoOptimizer::new(space, config.bo, config.n_initial),
            profiles,
            config,
            records: Vec::new(),
        }
    }

    /// The task profiles (priority-queue input `P`).
    pub fn profiles(&self) -> &[TaskProfile] {
        &self.profiles
    }

    /// Expected latency `τ^e` per task (Eq. 4 denominators).
    pub fn expected_latencies(&self) -> Vec<f64> {
        self.profiles.iter().map(|p| p.expected_latency()).collect()
    }

    /// Total rounds of one activation: initialization plus BO iterations.
    fn total_iterations(&self) -> usize {
        self.config.n_initial + self.config.iterations
    }

    /// Number of completed (observed) iterations in this activation.
    pub fn completed_iterations(&self) -> usize {
        self.records.len()
    }

    /// True once the activation has run all its rounds.
    pub fn is_done(&self) -> bool {
        self.records.len() >= self.total_iterations()
    }

    /// Line 1 + lines 2–23 of Algorithm 1: asks the Bayesian optimizer for
    /// the next `(c, x)` and lowers it to a concrete per-task allocation.
    pub fn next_point(&mut self, rng: &mut dyn RngCore) -> HboPoint {
        let z = self.bo.suggest(rng);
        self.point_from_z(z)
    }

    /// Builds the configuration that represents an explicit allocation
    /// (e.g. the configuration running *before* the activation): `c` is
    /// the allocation's per-resource proportion and the allocation is kept
    /// verbatim rather than re-derived. Feeding this to
    /// [`Self::observe`] seeds the BO dataset with the incumbent, so the
    /// activation can never "converge" to something worse than what was
    /// already running (up to measurement noise).
    ///
    /// # Panics
    ///
    /// Panics if the allocation length differs from the task count or `x`
    /// is outside the configured ratio bounds.
    pub fn incumbent_point(&self, allocation: Vec<Delegate>, x: f64) -> HboPoint {
        assert_eq!(
            allocation.len(),
            self.profiles.len(),
            "one delegate per task required"
        );
        let m = allocation.len() as f64;
        let mut c = vec![0.0; self.bo.space().simplex_dim()];
        for d in &allocation {
            assert!(
                d.index() < c.len(),
                "incumbent uses {d}, which is outside this controller's space"
            );
            c[d.index()] += 1.0 / m;
        }
        let mut z = c.clone();
        z.push(x);
        assert!(
            self.bo.space().contains(&z, 1e-6),
            "incumbent outside the configured space: {z:?}"
        );
        HboPoint {
            z,
            c,
            x,
            allocation,
        }
    }

    /// Builds the full configuration for a raw BO vector.
    fn point_from_z(&self, z: Vec<f64>) -> HboPoint {
        let (c, x) = {
            let (c, x) = self.bo.space().split(&z);
            (c.to_vec(), x)
        };
        let allocation = allocate_tasks(&c, &self.profiles);
        HboPoint {
            z,
            c,
            x,
            allocation,
        }
    }

    /// Lines 24–26: converts the measured `(Q, ε)` into the cost `φ` and
    /// appends `(c, x, φ)` to the BO dataset `D`.
    ///
    /// # Panics
    ///
    /// Panics if the measurements are not finite.
    pub fn observe(&mut self, point: HboPoint, quality: f64, epsilon: f64) {
        assert!(
            quality.is_finite() && epsilon.is_finite(),
            "non-finite measurement"
        );
        let cost_value = match self.config.cost_mode {
            CostMode::QualityAndLatency => cost::cost(quality, epsilon, self.config.w),
            CostMode::LatencyOnly => epsilon,
        };
        self.bo.observe(point.z.clone(), cost_value);
        self.records.push(IterationRecord {
            point,
            quality,
            epsilon,
            cost: cost_value,
        });
    }

    /// The lowest-cost iteration so far (the configuration HBO keeps after
    /// the activation ends).
    pub fn best(&self) -> Option<&IterationRecord> {
        self.records.iter().min_by(|a, b| a.cost.total_cmp(&b.cost))
    }

    /// Every iteration of the current activation, in order — the data
    /// behind Fig. 4c, Fig. 6 and Fig. 7.
    pub fn records(&self) -> &[IterationRecord] {
        &self.records
    }

    /// The running best-cost trace (`best cost` after each iteration —
    /// exactly the series plotted in Fig. 4c / Fig. 7).
    pub fn best_cost_trace(&self) -> Vec<f64> {
        let mut best = f64::INFINITY;
        self.records
            .iter()
            .map(|r| {
                best = best.min(r.cost);
                best
            })
            .collect()
    }

    /// Starts a fresh activation: clears the dataset `D` and the records.
    pub fn reset_activation(&mut self) {
        self.bo.reset();
        self.records.clear();
    }

    /// Installs a tracer on the inner Bayesian optimizer (per-suggest
    /// fit / acquisition-scoring / chosen-point spans on the `bo suggest`
    /// track). Tracing never touches the RNG stream.
    pub fn set_tracer(&mut self, tracer: simcore::trace::Tracer) {
        self.bo.set_tracer(tracer);
    }

    /// Sets the simulated timestamp stamped onto subsequent BO trace
    /// records (the optimizer itself runs in wall time).
    pub fn set_trace_now(&mut self, now: simcore::SimTime) {
        self.bo.set_trace_now(now);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use simcore::rand::SeedableRng;

    fn profiles() -> Vec<TaskProfile> {
        vec![
            TaskProfile::new("gpuish", [Some(25.0), Some(12.0), Some(40.0)]),
            TaskProfile::new("nnapish", [Some(40.0), Some(30.0), Some(10.0)]),
            TaskProfile::new("cpuish", [Some(8.0), Some(20.0), Some(30.0)]),
        ]
    }

    /// A synthetic environment: quality rises with x, latency explodes when
    /// tasks pile on NNAPI while x is high.
    fn environment(point: &HboPoint) -> (f64, f64) {
        let q = 1.0 - 0.6 * (1.0 - point.x);
        let nnapi_share = point
            .allocation
            .iter()
            .filter(|&&d| d == Delegate::Nnapi)
            .count() as f64
            / point.allocation.len() as f64;
        let eps = 0.2 + 1.5 * nnapi_share * point.x;
        (q, eps)
    }

    fn run_activation(seed: u64) -> HboController {
        let mut hbo = HboController::new(profiles(), HboConfig::default());
        let mut rng = simcore::rand::StdRng::seed_from_u64(seed);
        while !hbo.is_done() {
            let p = hbo.next_point(&mut rng);
            let (q, e) = environment(&p);
            hbo.observe(p, q, e);
        }
        hbo
    }

    #[test]
    fn runs_the_paper_iteration_budget() {
        let hbo = run_activation(3);
        assert_eq!(hbo.completed_iterations(), 20); // 5 init + 15 BO
        assert!(hbo.is_done());
        assert!(hbo.best().is_some());
    }

    #[test]
    fn best_cost_trace_is_monotone_nonincreasing() {
        let hbo = run_activation(4);
        let trace = hbo.best_cost_trace();
        assert_eq!(trace.len(), 20);
        for w in trace.windows(2) {
            assert!(w[1] <= w[0] + 1e-12);
        }
    }

    #[test]
    fn points_satisfy_constraints() {
        let mut hbo = HboController::new(profiles(), HboConfig::default());
        let mut rng = simcore::rand::StdRng::seed_from_u64(5);
        for _ in 0..10 {
            let p = hbo.next_point(&mut rng);
            let c_sum: f64 = p.c.iter().sum();
            assert!((c_sum - 1.0).abs() < 1e-9, "c = {:?}", p.c);
            assert!((0.2..=1.0).contains(&p.x), "x = {}", p.x);
            assert_eq!(p.allocation.len(), 3);
            let (q, e) = environment(&p);
            hbo.observe(p, q, e);
        }
    }

    #[test]
    fn bnt_mode_pins_triangles_at_one() {
        let config = HboConfig {
            optimize_triangles: false,
            cost_mode: CostMode::LatencyOnly,
            ..HboConfig::default()
        };
        let mut hbo = HboController::new(profiles(), config);
        let mut rng = simcore::rand::StdRng::seed_from_u64(6);
        for _ in 0..8 {
            let p = hbo.next_point(&mut rng);
            assert_eq!(p.x, 1.0);
            let (q, e) = environment(&p);
            hbo.observe(p, q, e);
        }
        // LatencyOnly cost equals epsilon.
        for r in hbo.records() {
            assert_eq!(r.cost, r.epsilon);
        }
    }

    #[test]
    fn converges_to_a_good_tradeoff() {
        // In this synthetic environment the optimum avoids loading NNAPI
        // and keeps x moderate; HBO should find a clearly-better-than-
        // average configuration.
        let hbo = run_activation(7);
        let best = hbo.best().unwrap();
        let mean_cost: f64 =
            hbo.records().iter().map(|r| r.cost).sum::<f64>() / hbo.records().len() as f64;
        assert!(
            best.cost < mean_cost,
            "best {} vs mean {mean_cost}",
            best.cost
        );
    }

    #[test]
    fn reset_starts_a_new_dataset() {
        let mut hbo = run_activation(8);
        assert!(hbo.is_done());
        hbo.reset_activation();
        assert_eq!(hbo.completed_iterations(), 0);
        assert!(hbo.best().is_none());
    }

    #[test]
    fn incumbent_point_round_trips_the_allocation() {
        let hbo = HboController::new(profiles(), HboConfig::default());
        let alloc = vec![Delegate::Cpu, Delegate::Nnapi, Delegate::Cpu];
        let p = hbo.incumbent_point(alloc.clone(), 1.0);
        assert_eq!(p.allocation, alloc);
        assert!((p.c[Delegate::Cpu.index()] - 2.0 / 3.0).abs() < 1e-12);
        assert!((p.c[Delegate::Nnapi.index()] - 1.0 / 3.0).abs() < 1e-12);
        assert_eq!(p.x, 1.0);
        // Observing it is valid (the z is feasible).
        let mut hbo = hbo;
        hbo.observe(p, 0.9, 0.2);
        assert_eq!(hbo.completed_iterations(), 1);
    }

    #[test]
    fn expected_latencies_are_per_task_minima() {
        let hbo = HboController::new(profiles(), HboConfig::default());
        assert_eq!(hbo.expected_latencies(), vec![12.0, 10.0, 8.0]);
    }

    #[test]
    #[should_panic(expected = "at least one AI task")]
    fn empty_taskset_panics() {
        HboController::new(vec![], HboConfig::default());
    }

    #[test]
    fn edge_capable_taskset_gets_the_fourth_dimension() {
        // On-device-only profiles keep the paper's 3-simplex (so seeded
        // results are unchanged); one edge-capable profile grows it to 4.
        let mut ps = profiles();
        let hbo = HboController::new(ps.clone(), HboConfig::default());
        let p = hbo.incumbent_point(vec![Delegate::Cpu; 3], 1.0);
        assert_eq!(p.c.len(), 3);
        assert_eq!(p.z.len(), 4);

        ps[0] = ps[0].clone().with_edge(5.0);
        let mut hbo = HboController::new(ps, HboConfig::default());
        let p = hbo.incumbent_point(vec![Delegate::Edge, Delegate::Cpu, Delegate::Cpu], 1.0);
        assert_eq!(p.c.len(), 4);
        assert!((p.c[Delegate::Edge.index()] - 1.0 / 3.0).abs() < 1e-12);
        // Suggested points live in the 4+1-D space and allocate edge-aware.
        let mut rng = simcore::rand::StdRng::seed_from_u64(9);
        for _ in 0..5 {
            let p = hbo.next_point(&mut rng);
            assert_eq!(p.z.len(), 5);
            let c_sum: f64 = p.c.iter().sum();
            assert!((c_sum - 1.0).abs() < 1e-9);
            let (q, e) = environment(&p);
            hbo.observe(p, q, e);
        }
    }
}
