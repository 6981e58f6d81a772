//! Synthetic scenario generation: randomized object sets and tasksets for
//! robustness/generalization studies beyond the paper's four hand-built
//! scenarios.

use arscene::scenarios::CatalogEntry;
use arscene::QualityParams;
use simcore::rand::Rng;
use simcore::rand::SeedableRng;

use crate::scenario::{ScenarioSpec, TaskSpec};

/// An object archetype: a point on the heavy-flat ↔ light-steep spectrum
/// (oversampled meshes tolerate decimation; sparse meshes do not).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Archetype {
    /// Base name of generated instances.
    pub name: &'static str,
    /// Full-quality triangle count.
    pub triangles: u64,
    /// Trained Eq. (1) parameters.
    pub params: QualityParams,
}

/// The built-in archetype spectrum used by [`random_scenario`].
pub(crate) fn archetypes() -> Vec<Archetype> {
    vec![
        Archetype {
            name: "mega",
            triangles: 160_000,
            params: QualityParams::new(0.78, -1.96, 1.18, 1.2),
        },
        Archetype {
            name: "heavy",
            triangles: 90_000,
            params: QualityParams::new(0.87, -2.18, 1.31, 1.4),
        },
        Archetype {
            name: "medium",
            triangles: 30_000,
            params: QualityParams::new(1.00, -2.30, 1.30, 1.1),
        },
        Archetype {
            name: "light",
            triangles: 6_000,
            params: QualityParams::new(0.80, -1.80, 1.00, 1.0),
        },
        Archetype {
            name: "tiny",
            triangles: 2_300,
            params: QualityParams::new(1.20, -2.60, 1.40, 0.9),
        },
    ]
}

/// Knobs for [`random_scenario`].
#[derive(Debug, Clone, PartialEq)]
pub struct SynthConfig {
    /// Inclusive range of object counts.
    pub objects: (usize, usize),
    /// Inclusive range of AI task instance counts.
    pub tasks: (usize, usize),
    /// Range of user distances (meters).
    pub distance: (f64, f64),
    /// Range of per-object depth multipliers.
    pub depth_factor: (f64, f64),
    /// Models drawn from (must exist in the Pixel 7 zoo).
    pub model_pool: Vec<&'static str>,
}

impl Default for SynthConfig {
    fn default() -> Self {
        SynthConfig {
            objects: (3, 10),
            tasks: (3, 6),
            distance: (0.8, 1.8),
            depth_factor: (0.7, 1.5),
            model_pool: vec![
                "mnist",
                "mobilenetDetv1",
                "efficientclass-lite0",
                "inception-v1-q",
                "mobilenet-v1",
                "model-metadata",
            ],
        }
    }
}

/// Generates a deterministic random scenario on the Pixel 7.
///
/// # Panics
///
/// Panics if the config's ranges are inverted or the model pool is empty.
pub fn random_scenario(seed: u64, config: &SynthConfig) -> ScenarioSpec {
    assert!(
        config.objects.0 <= config.objects.1,
        "inverted object range"
    );
    assert!(config.tasks.0 <= config.tasks.1, "inverted task range");
    assert!(!config.model_pool.is_empty(), "empty model pool");
    let mut rng = simcore::rand::StdRng::seed_from_u64(seed);
    let mut spec = ScenarioSpec::sc1_cf1();
    spec.name = format!("RAND-{seed}");

    let arch = archetypes();
    let n_objects = rng.gen_range(config.objects.0..=config.objects.1);
    let mut objects = Vec::new();
    for i in 0..n_objects {
        let a = arch[rng.gen_range(0..arch.len())];
        objects.push(CatalogEntry {
            name: Box::leak(format!("{}{i}", a.name).into_boxed_str()),
            count: 1,
            triangles: a.triangles,
            params: a.params,
            distance_factor: rng.gen_range(config.depth_factor.0..config.depth_factor.1),
        });
    }
    spec.objects = objects;

    let n_tasks = rng.gen_range(config.tasks.0..=config.tasks.1);
    let mut tasks: Vec<TaskSpec> = Vec::new();
    for _ in 0..n_tasks {
        let model = config.model_pool[rng.gen_range(0..config.model_pool.len())];
        match tasks.iter_mut().find(|t| t.model == model) {
            Some(t) => t.count += 1,
            None => tasks.push(TaskSpec::new(model, 1)),
        }
    }
    spec.tasks = tasks;
    spec.user_distance = rng.gen_range(config.distance.0..config.distance.1);
    spec
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn deterministic_per_seed() {
        let c = SynthConfig::default();
        let a = random_scenario(5, &c);
        let b = random_scenario(5, &c);
        assert_eq!(a.objects, b.objects);
        assert_eq!(a.tasks, b.tasks);
        assert_eq!(a.user_distance, b.user_distance);
        let c2 = random_scenario(6, &c);
        assert!(a.objects != c2.objects || a.tasks != c2.tasks);
    }

    #[test]
    fn respects_configured_ranges() {
        let c = SynthConfig {
            objects: (2, 4),
            tasks: (1, 2),
            distance: (1.0, 1.1),
            ..SynthConfig::default()
        };
        for seed in 0..20 {
            let s = random_scenario(seed, &c);
            assert!((2..=4).contains(&s.objects.len()));
            assert!((1..=2).contains(&s.task_count()));
            assert!((1.0..1.1).contains(&s.user_distance));
        }
    }

    #[test]
    fn generated_scenarios_are_runnable() {
        let spec = random_scenario(11, &SynthConfig::default());
        let mut app = crate::MarApp::new(&spec);
        app.place_all_objects();
        let m = app.measure_for_secs(1.0);
        assert!(m.quality > 0.0 && m.epsilon >= 0.0);
        // Profiles resolve for every generated task.
        assert_eq!(spec.profiles().len(), spec.task_count());
    }

    #[test]
    fn archetypes_span_the_weight_spectrum() {
        let a = archetypes();
        assert!(a.first().unwrap().triangles > 50 * a.last().unwrap().triangles);
        for arch in &a {
            // Trained-curve invariants: zero error at full quality,
            // decreasing error in R.
            assert!(arch.params.polynomial(1.0).abs() < 1e-9);
            assert!(arch.params.marginal(1.0) > 0.0);
        }
    }

    #[test]
    #[should_panic(expected = "empty model pool")]
    fn empty_pool_panics() {
        random_scenario(
            0,
            &SynthConfig {
                model_pool: vec![],
                ..SynthConfig::default()
            },
        );
    }
}
