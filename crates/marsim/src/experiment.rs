//! Full experiment drivers: HBO activations and baseline evaluations
//! (Figs. 4–7, Tables III–IV).

use hbo_core::{
    all_nnapi_allocation, static_best_allocation, Baseline, BoConfig, CostMode, HboConfig,
    HboController, HboPoint, IterationRecord, ScenarioSignature, StoredConfig, WarmCache,
};
use nnmodel::Delegate;
use simcore::rand::{SeedableRng, StdRng};
use simcore::trace::{ArgValue, Tracer, TrackId};
use simcore::SimTime;

use crate::app::{MarApp, Measurement};
use crate::scenario::ScenarioSpec;
use crate::telemetry::TelemetrySummary;

/// Control period per BO iteration, in simulated seconds: the time a
/// candidate configuration runs before its `(Q, ε)` is recorded.
pub const CONTROL_PERIOD_SECS: f64 = 2.0;

/// Warm-up time after the app starts before the first measurement.
pub(crate) const WARMUP_SECS: f64 = 1.0;

/// The outcome of one HBO activation.
#[derive(Debug, Clone)]
pub struct HboRunResult {
    /// Every iteration (5 random + 15 BO by default), in order.
    pub records: Vec<IterationRecord>,
    /// The lowest-cost iteration — the configuration HBO keeps.
    pub best: IterationRecord,
    /// Running best-cost trace (Fig. 4c / Fig. 7 series).
    pub best_cost_trace: Vec<f64>,
    /// Telemetry totals for the whole activation (processor completions,
    /// dropped frames, peak queue depths, edge counters).
    pub telemetry: TelemetrySummary,
}

impl HboRunResult {
    /// Iterations until the final best cost was first reached (the paper's
    /// convergence metric: "converges … after just 7 iterations").
    pub fn iterations_to_converge(&self) -> usize {
        let best = self.best.cost;
        self.best_cost_trace
            .iter()
            .position(|&c| (c - best).abs() < 1e-12)
            .map(|i| i + 1)
            .unwrap_or(self.best_cost_trace.len())
    }

    /// Euclidean distances between consecutive BO inputs (Fig. 6a).
    pub fn consecutive_distances(&self) -> Vec<f64> {
        self.records
            .windows(2)
            .map(|w| {
                w[0].point
                    .z
                    .iter()
                    .zip(&w[1].point.z)
                    .map(|(a, b)| (a - b) * (a - b))
                    .sum::<f64>()
                    .sqrt()
            })
            .collect()
    }
}

/// Runs one full HBO activation on a freshly started app with every object
/// placed (the setting of Section V-B).
///
/// The activation records into the tracer in scope
/// ([`simcore::trace::observe`]): the SoC simulation gets per-slot spans
/// and queue counters, each control window gets an `"hbo"` `X` span, and
/// the Bayesian optimizer gets per-suggest spans. Tracing never touches
/// the RNG streams or the measurement path, so the result is
/// bit-identical with or without a tracer.
pub fn run_hbo(spec: &ScenarioSpec, config: &HboConfig, seed: u64) -> HboRunResult {
    run_activation(spec, config, seed, MarApp::new(spec), None)
}

/// What the activation loop drives: a running app, alone ([`MarApp`]) or
/// as the on-device half of an [`crate::EdgeWorld`], that takes a
/// configuration and reports each control window's `(Q, ε)`. The
/// provided methods are the plain app's.
pub(crate) trait Plant {
    /// The on-device app: its scene and its clock.
    fn app(&self) -> &MarApp;
    /// The on-device app, for placing objects and warming up.
    fn app_mut(&mut self) -> &mut MarApp;
    /// The allocation currently applied, in task order.
    fn allocation(&self) -> Vec<Delegate> {
        self.app().allocation()
    }
    /// Applies a full HBO configuration.
    fn apply(&mut self, point: &HboPoint) {
        self.app_mut().apply(point)
    }
    /// Runs one window of `secs`: its `(Q, ε)` and its end time.
    fn measure(&mut self, secs: f64) -> (f64, f64, SimTime) {
        let m = self.app_mut().measure_for_secs(secs);
        (m.quality, m.epsilon, m.at)
    }
    /// Telemetry totals so far.
    fn telemetry(&self) -> TelemetrySummary {
        self.app().telemetry()
    }
}

impl Plant for MarApp {
    fn app(&self) -> &MarApp {
        self
    }
    fn app_mut(&mut self) -> &mut MarApp {
        self
    }
}

/// Algorithm 1's evaluate–observe loop, which every activation runs: the
/// incumbent window (the allocation already running, at triangle ratio
/// `ratio`), the cached configuration's window when `warm_seed` is set,
/// then suggest → apply → measure → observe until `hbo` is done. Each
/// window gets an `"hbo"` `X` span on `track` of the tracer in scope,
/// carrying the iteration index, the applied configuration and the
/// measured `(Q, ε, φ)`, and is handed to `on_window` with its end time.
pub(crate) fn activate<P: Plant>(
    plant: &mut P,
    hbo: &mut HboController,
    rng: &mut StdRng,
    ratio: f64,
    warm_seed: Option<&StoredConfig>,
    track: TrackId,
    mut on_window: impl FnMut(SimTime, &IterationRecord),
) {
    let tracer = Tracer::current();
    let mut window = |plant: &mut P, hbo: &mut HboController, point: HboPoint| {
        plant.apply(&point);
        let start = plant.app().now();
        let (quality, epsilon, end) = plant.measure(CONTROL_PERIOD_SECS);
        hbo.observe(point, quality, epsilon);
        let iter = hbo.completed_iterations() - 1;
        let rec = &hbo.records()[iter];
        if tracer.is_enabled() {
            let alloc: String = rec.point.allocation.iter().map(|d| d.letter()).collect();
            let args = [
                ("iter", ArgValue::from(iter)),
                ("alloc", ArgValue::from(alloc)),
                ("x", ArgValue::from(rec.point.x)),
                ("quality", ArgValue::from(rec.quality)),
                ("epsilon", ArgValue::from(rec.epsilon)),
                ("cost", ArgValue::from(rec.cost)),
            ];
            tracer.complete(start, end - start, track, "hbo", "window", &args);
        }
        on_window(end, rec);
    };
    // Seeding the dataset with the configuration already running means
    // the chosen best can never regress below the incumbent.
    let incumbent = hbo.incumbent_point(plant.allocation(), ratio);
    window(plant, hbo, incumbent);
    if let Some(stored) = warm_seed {
        // The controller's layout: z = c ++ [x].
        let seed_point = HboPoint {
            z: [&stored.c[..], &[stored.x]].concat(),
            c: stored.c.clone(),
            x: stored.x,
            allocation: stored.allocation.clone(),
        };
        window(plant, hbo, seed_point);
    }
    while !hbo.is_done() {
        hbo.set_trace_now(plant.app().now());
        let point = hbo.next_point(rng);
        window(plant, hbo, point);
    }
}

/// One activation of a freshly built `plant`, behind [`run_hbo`] and
/// [`crate::edge::run_edge_hbo`]: every object placed, a warm-up, then
/// [`activate`] from the incumbent at the scene's current ratio. The
/// plant and the controller record into the tracer in scope. A
/// `warm_seed` is observed as one extra seeded window right after the
/// incumbent, without touching the RNG stream.
pub(crate) fn run_activation<P: Plant>(
    spec: &ScenarioSpec,
    config: &HboConfig,
    seed: u64,
    mut plant: P,
    warm_seed: Option<&StoredConfig>,
) -> HboRunResult {
    let tracer = Tracer::current();
    let track = tracer.register_track("hbo", "hbo control");
    plant.app_mut().place_all_objects();
    plant.app_mut().run_for_secs(WARMUP_SECS);
    let mut hbo = HboController::new(spec.profiles(), config.clone());
    hbo.set_tracer(tracer);
    let mut rng = StdRng::seed_from_u64(seed);
    let ratio = plant.app().scene().overall_ratio().min(1.0);
    activate(
        &mut plant,
        &mut hbo,
        &mut rng,
        ratio,
        warm_seed,
        track,
        |_, _| {},
    );
    let best = hbo
        .best()
        .expect("activation ran at least one iteration")
        .clone();
    // The incumbent and the warm seed cost no suggest call.
    let seeded_windows = 1 + warm_seed.is_some() as u64;
    let mut telemetry = plant.telemetry();
    telemetry.bo_suggests = hbo.completed_iterations() as u64 - seeded_windows;
    HboRunResult {
        best_cost_trace: hbo.best_cost_trace(),
        records: hbo.records().to_vec(),
        best,
        telemetry,
    }
}

/// Computes the fleet-cache identity of a scenario: device fingerprint,
/// model multiset, render-load band (maximum scene triangles per metre of
/// user distance, half-octave quantized), and edge capability.
pub fn scenario_signature(spec: &ScenarioSpec) -> ScenarioSignature {
    let models = spec.task_models();
    let load = spec.scene().total_max_triangles() as f64 / spec.user_distance;
    ScenarioSignature::quantize(
        &spec.device.name,
        models.iter().map(|m| m.as_str()),
        load,
        spec.edge.is_some(),
    )
}

/// The outcome of one warm-started HBO activation.
#[derive(Debug, Clone)]
pub struct WarmRunResult {
    /// The activation outcome (telemetry carries the warm counters).
    pub run: HboRunResult,
    /// Whether the fleet cache supplied a usable seed configuration.
    pub warm_hit: bool,
}

/// Applies [`BoConfig::warm_default`]'s cheaper optimizer settings and a
/// minimal random design to a config whose dataset starts with a cached
/// converged seed.
fn warm_variant(config: &HboConfig) -> HboConfig {
    let warm = BoConfig::warm_default();
    let mut out = config.clone();
    out.bo.n_candidates = warm.n_candidates;
    out.bo.n_local = warm.n_local;
    // With the incumbent plus a converged seed already observed, long
    // random design is wasted wall-clock: hand over to the surrogate
    // almost immediately.
    out.n_initial = out.n_initial.min(2);
    out
}

/// [`run_hbo`] with the fleet-wide warm-start cache in the loop, keyed on
/// [`scenario_signature`]. See [`run_hbo_warm_keyed`].
pub fn run_hbo_warm(
    spec: &ScenarioSpec,
    config: &HboConfig,
    seed: u64,
    cache: &mut WarmCache,
) -> WarmRunResult {
    let sig = scenario_signature(spec);
    run_hbo_warm_keyed(spec, config, seed, cache, sig)
}

/// [`run_hbo_warm`] with a caller-chosen signature (the fleet planner
/// keys per-class plans on class identity rather than a full scenario).
///
/// On a cache hit the activation observes the cached converged
/// configuration as a seed window right after the incumbent, switches to
/// [`BoConfig::warm_default`]'s smaller candidate cloud, and
/// shortens the random design; on a miss it runs the cold config
/// unchanged. Either way the session's own best is stored back
/// (better-reward-wins) under the same signature, so later sessions warm
/// up from it. Deterministic given `(spec, config, seed)` and the cache
/// contents.
pub fn run_hbo_warm_keyed(
    spec: &ScenarioSpec,
    config: &HboConfig,
    seed: u64,
    cache: &mut WarmCache,
    signature: ScenarioSignature,
) -> WarmRunResult {
    run_warm(spec, config, seed, cache, signature, MarApp::new(spec))
}

/// The warm-start protocol of [`run_hbo_warm_keyed`] on any plant, behind
/// it and [`crate::edge::run_edge_hbo_warm`]. A cached configuration is a
/// hit only when it fits the scenario's decision space (a 3-simplex seed
/// cannot warm a 4-simplex session or vice versa).
pub(crate) fn run_warm<P: Plant>(
    spec: &ScenarioSpec,
    config: &HboConfig,
    seed: u64,
    cache: &mut WarmCache,
    signature: ScenarioSignature,
    plant: P,
) -> WarmRunResult {
    let dim = if spec.profiles().iter().any(|p| p.supports(Delegate::Edge)) {
        Delegate::COUNT
    } else {
        Delegate::COUNT - 1
    };
    let seed_config = cache.find(&signature).filter(|s| s.c.len() == dim).cloned();
    let warm_hit = seed_config.is_some();
    let mut run = match &seed_config {
        Some(stored) => run_activation(spec, &warm_variant(config), seed, plant, Some(stored)),
        None => run_activation(spec, config, seed, plant, None),
    };
    run.telemetry.warm_hits = warm_hit as u64;
    run.telemetry.warm_misses = !warm_hit as u64;
    cache.store(
        signature,
        StoredConfig {
            c: run.best.point.c.clone(),
            x: run.best.point.x,
            allocation: run.best.point.allocation.clone(),
            reward: -run.best.cost,
        },
    );
    WarmRunResult { run, warm_hit }
}

/// The measured outcome of one system (HBO or a baseline) on a scenario.
#[derive(Debug, Clone)]
pub struct BaselineOutcome {
    /// Which system.
    pub baseline: Baseline,
    /// Final allocation, in task order.
    pub allocation: Vec<Delegate>,
    /// Final triangle ratio.
    pub x: f64,
    /// Measured performance under the final configuration.
    pub measurement: Measurement,
}

impl BaselineOutcome {
    /// The reward `B = Q − w ε`.
    pub fn reward(&self, w: f64) -> f64 {
        self.measurement.reward(w)
    }
}

/// Applies a fixed configuration to a fresh app and measures it over an
/// extended window.
fn evaluate_fixed(spec: &ScenarioSpec, allocation: &[Delegate], x: f64) -> Measurement {
    let mut app = MarApp::new(spec);
    app.place_all_objects();
    app.set_allocation(allocation);
    app.set_triangle_ratio(x);
    app.run_for_secs(WARMUP_SECS);
    app.measure_for_secs(2.0 * CONTROL_PERIOD_SECS)
}

/// Evaluates HBO plus the four baselines of Section V-A on one scenario,
/// reusing a single HBO activation result (SMQ matches its quality, SML
/// matches its latency).
pub fn compare_baselines(spec: &ScenarioSpec, config: &HboConfig, seed: u64) -> ExperimentResult {
    let hbo_run = run_hbo(spec, config, seed);
    let profiles = spec.profiles();
    let static_alloc = static_best_allocation(&profiles);
    let mut outcomes = Vec::new();

    // HBO: re-apply the chosen configuration and measure it fresh.
    let hbo_measure = evaluate_fixed(spec, &hbo_run.best.point.allocation, hbo_run.best.point.x);
    outcomes.push(BaselineOutcome {
        baseline: Baseline::Hbo,
        allocation: hbo_run.best.point.allocation.clone(),
        x: hbo_run.best.point.x,
        measurement: hbo_measure.clone(),
    });

    // SMQ: HBO's triangle ratio (same TD), static allocation.
    let smq = evaluate_fixed(spec, &static_alloc, hbo_run.best.point.x);
    outcomes.push(BaselineOutcome {
        baseline: Baseline::Smq,
        allocation: static_alloc.clone(),
        x: hbo_run.best.point.x,
        measurement: smq,
    });

    // SML: static allocation; the total triangle count is gradually
    // reduced (distributed with the same TD algorithm HBO uses, which the
    // system provides) until the average latency is similar to HBO's. The
    // static allocation has a contention floor the sweep cannot cross
    // (GPU-affine tasks sharing the GPU among themselves), so the sweep is
    // bounded below by R_min and settles at the largest ratio whose
    // latency meets the achievable target.
    let floor = evaluate_fixed(spec, &static_alloc, config.r_min);
    let target_eps = hbo_measure.epsilon.max(floor.epsilon) * 1.05;
    let mut lo = config.r_min;
    let mut hi = 1.0;
    let mut sml_x = lo;
    let mut sml_measure = floor;
    for _ in 0..7 {
        let mid = 0.5 * (lo + hi);
        let m = evaluate_fixed(spec, &static_alloc, mid);
        if m.epsilon <= target_eps {
            // Latency target met: try to keep more quality.
            sml_x = mid;
            sml_measure = m;
            lo = mid;
        } else {
            hi = mid;
        }
    }
    outcomes.push(BaselineOutcome {
        baseline: Baseline::Sml,
        allocation: static_alloc.clone(),
        x: sml_x,
        measurement: sml_measure,
    });

    // BNT: latency-only BO, triangles pinned at 1.
    let bnt_config = HboConfig {
        cost_mode: CostMode::LatencyOnly,
        optimize_triangles: false,
        ..config.clone()
    };
    let bnt_run = run_hbo(spec, &bnt_config, seed ^ 0x517c_c1b7_2722_0a95);
    let bnt_measure = evaluate_fixed(spec, &bnt_run.best.point.allocation, 1.0);
    outcomes.push(BaselineOutcome {
        baseline: Baseline::Bnt,
        allocation: bnt_run.best.point.allocation.clone(),
        x: 1.0,
        measurement: bnt_measure,
    });

    // AllN: everything on NNAPI (when compatible), full quality.
    let alln = all_nnapi_allocation(&profiles);
    let alln_measure = evaluate_fixed(spec, &alln, 1.0);
    outcomes.push(BaselineOutcome {
        baseline: Baseline::AllN,
        allocation: alln,
        x: 1.0,
        measurement: alln_measure,
    });

    ExperimentResult { hbo_run, outcomes }
}

/// HBO and every baseline on one scenario — the data behind Fig. 5 and
/// Table IV.
#[derive(Debug, Clone)]
pub struct ExperimentResult {
    /// The underlying HBO activation.
    pub hbo_run: HboRunResult,
    /// Outcomes in [`Baseline::ALL`] order.
    pub outcomes: Vec<BaselineOutcome>,
}

impl ExperimentResult {
    /// The outcome of one system.
    pub fn outcome(&self, baseline: Baseline) -> &BaselineOutcome {
        self.outcomes
            .iter()
            .find(|o| o.baseline == baseline)
            .expect("all baselines evaluated")
    }

    /// Ratio of a baseline's `ε` to HBO's (how many times slower; the
    /// "latency ratio" of Fig. 5c, computed on 1 + ε so it is meaningful
    /// when HBO's ε approaches zero).
    pub fn latency_ratio_vs_hbo(&self, baseline: Baseline) -> f64 {
        let hbo = self.outcome(Baseline::Hbo).measurement.epsilon;
        let other = self.outcome(baseline).measurement.epsilon;
        (1.0 + other) / (1.0 + hbo)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn quick_config() -> HboConfig {
        HboConfig {
            n_initial: 3,
            iterations: 5,
            ..HboConfig::default()
        }
    }

    #[test]
    fn hbo_activation_produces_a_best_record() {
        let run = run_hbo(&ScenarioSpec::sc2_cf2(), &quick_config(), 7);
        assert_eq!(run.records.len(), 8);
        assert_eq!(run.best_cost_trace.len(), 8);
        assert!(run.iterations_to_converge() <= 8);
        assert_eq!(run.consecutive_distances().len(), 7);
        // Best record really is the minimum.
        let min = run
            .records
            .iter()
            .map(|r| r.cost)
            .fold(f64::INFINITY, f64::min);
        assert_eq!(run.best.cost, min);
    }

    #[test]
    fn hbo_beats_the_naive_full_quality_all_nnapi_point() {
        let spec = ScenarioSpec::sc1_cf1();
        let config = quick_config();
        let run = run_hbo(&spec, &config, 3);
        let alln = evaluate_fixed(&spec, &all_nnapi_allocation(&spec.profiles()), 1.0);
        let hbo_reward = hbo_core::reward(run.best.quality, run.best.epsilon, config.w);
        let alln_reward = alln.reward(config.w);
        assert!(
            hbo_reward > alln_reward,
            "HBO reward {hbo_reward} should beat AllN {alln_reward}"
        );
    }

    #[test]
    fn compare_baselines_covers_all_five() {
        let result = compare_baselines(&ScenarioSpec::sc2_cf2(), &quick_config(), 11);
        assert_eq!(result.outcomes.len(), 5);
        for b in Baseline::ALL {
            let o = result.outcome(b);
            assert_eq!(o.baseline, b);
            assert!(o.measurement.quality > 0.0);
        }
        // BNT and AllN keep full quality by construction.
        assert_eq!(result.outcome(Baseline::Bnt).x, 1.0);
        assert_eq!(result.outcome(Baseline::AllN).x, 1.0);
        // SMQ shares HBO's ratio.
        assert_eq!(
            result.outcome(Baseline::Smq).x,
            result.outcome(Baseline::Hbo).x
        );
    }

    #[test]
    fn deterministic_given_seed() {
        let a = run_hbo(&ScenarioSpec::sc2_cf2(), &quick_config(), 5);
        let b = run_hbo(&ScenarioSpec::sc2_cf2(), &quick_config(), 5);
        assert_eq!(a.best.point, b.best.point);
        assert_eq!(a.best_cost_trace, b.best_cost_trace);
    }

    #[test]
    fn traced_run_matches_untraced_and_collects_telemetry() {
        use simcore::trace::{observe, ChromeTraceSink, Tracer};
        use std::cell::RefCell;
        use std::rc::Rc;

        let spec = ScenarioSpec::sc2_cf2();
        let config = quick_config();
        let plain = run_hbo(&spec, &config, 9);
        let sink = Rc::new(RefCell::new(ChromeTraceSink::new()));
        let traced = observe(Tracer::with_sink(Rc::clone(&sink)), || {
            run_hbo(&spec, &config, 9)
        });
        // Tracing must not change the activation in any way.
        assert_eq!(plain.best.point, traced.best.point);
        assert_eq!(plain.best_cost_trace, traced.best_cost_trace);
        assert_eq!(plain.telemetry, traced.telemetry);
        // Telemetry totals reflect real work.
        assert!(plain.telemetry.processors.iter().any(|p| p.completed > 0));
        assert!(plain.telemetry.frames_rendered > 0);
        // One "hbo" window span per completed iteration, plus SoC and BO
        // events from the lower layers.
        let buf = sink.borrow().snapshot();
        let windows = buf.records.iter().filter(|r| r.cat == "hbo").count();
        assert_eq!(windows, plain.records.len());
        assert!(buf.records.iter().any(|r| r.cat == "soc"));
        assert!(buf.records.iter().any(|r| r.cat == "bo"));
    }
}
