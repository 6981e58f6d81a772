//! Experiment scenarios: the object sets and AI tasksets of Table II,
//! combined with a device.

use arscene::scenarios::{sc1_catalog, sc2_catalog, CatalogEntry, DEFAULT_USER_DISTANCE};
use arscene::Scene;
use hbo_core::TaskProfile;
use nnmodel::ModelZoo;
use soc::DeviceProfile;

use crate::edge::EdgeSpec;

/// One taskset entry: a model and the number of concurrent instances.
#[derive(Debug, Clone, PartialEq)]
pub struct TaskSpec {
    /// Model name in the zoo.
    pub model: String,
    /// Number of instances running concurrently.
    pub count: usize,
}

impl TaskSpec {
    /// Creates a task spec.
    pub fn new(model: impl Into<String>, count: usize) -> Self {
        TaskSpec {
            model: model.into(),
            count,
        }
    }
}

/// A full experiment scenario: device + objects + taskset.
#[derive(Debug, Clone, PartialEq)]
pub struct ScenarioSpec {
    /// Scenario label, e.g. `"SC1-CF1"`.
    pub name: String,
    /// The phone.
    pub device: DeviceProfile,
    /// Virtual-object catalog (Table II upper half).
    pub objects: Vec<CatalogEntry>,
    /// AI taskset (Table II lower half).
    pub tasks: Vec<TaskSpec>,
    /// User-object base distance in meters.
    pub user_distance: f64,
    /// Wireless link + shared edge server, when the scenario allows
    /// offloading (`None` reproduces the paper's on-device-only setting).
    /// When set, [`Self::profiles`] gains an Edge latency per task and
    /// HBO's decision space gains the edge dimension.
    pub edge: Option<EdgeSpec>,
}

/// The CF1 taskset of Table II: six AI tasks (three GPU-affine, three
/// NNAPI-affine on the Pixel 7).
pub fn cf1_tasks() -> Vec<TaskSpec> {
    vec![
        TaskSpec::new("mnist", 1),
        TaskSpec::new("mobilenetDetv1", 1),
        TaskSpec::new("model-metadata", 2),
        TaskSpec::new("mobilenet-v1", 1),
        TaskSpec::new("efficientclass-lite0", 1),
    ]
}

/// The CF2 taskset of Table II: three AI tasks.
pub fn cf2_tasks() -> Vec<TaskSpec> {
    vec![
        TaskSpec::new("mnist", 1),
        TaskSpec::new("mobilenetDetv1", 1),
        TaskSpec::new("efficientclass-lite0", 1),
    ]
}

impl ScenarioSpec {
    /// SC1-CF1 on the Pixel 7 — the paper's most challenging combination.
    pub fn sc1_cf1() -> Self {
        ScenarioSpec {
            name: "SC1-CF1".to_owned(),
            device: DeviceProfile::pixel7(),
            objects: sc1_catalog(),
            tasks: cf1_tasks(),
            user_distance: DEFAULT_USER_DISTANCE,
            edge: None,
        }
    }

    /// SC2-CF1 on the Pixel 7.
    pub fn sc2_cf1() -> Self {
        ScenarioSpec {
            name: "SC2-CF1".to_owned(),
            device: DeviceProfile::pixel7(),
            objects: sc2_catalog(),
            tasks: cf1_tasks(),
            user_distance: DEFAULT_USER_DISTANCE,
            edge: None,
        }
    }

    /// SC1-CF2 on the Pixel 7.
    pub fn sc1_cf2() -> Self {
        ScenarioSpec {
            name: "SC1-CF2".to_owned(),
            device: DeviceProfile::pixel7(),
            objects: sc1_catalog(),
            tasks: cf2_tasks(),
            user_distance: DEFAULT_USER_DISTANCE,
            edge: None,
        }
    }

    /// SC2-CF2 on the Pixel 7.
    pub fn sc2_cf2() -> Self {
        ScenarioSpec {
            name: "SC2-CF2".to_owned(),
            device: DeviceProfile::pixel7(),
            objects: sc2_catalog(),
            tasks: cf2_tasks(),
            user_distance: DEFAULT_USER_DISTANCE,
            edge: None,
        }
    }

    /// The four scenario combinations of Section V-B, in the paper's
    /// order.
    pub fn all_four() -> Vec<ScenarioSpec> {
        vec![
            Self::sc1_cf1(),
            Self::sc2_cf1(),
            Self::sc1_cf2(),
            Self::sc2_cf2(),
        ]
    }

    /// The calibrated model zoo for this scenario's device.
    pub fn zoo(&self) -> ModelZoo {
        ModelZoo::for_device(&self.device.name)
    }

    /// Number of AI task instances (`M`).
    pub fn task_count(&self) -> usize {
        self.tasks.iter().map(|t| t.count).sum()
    }

    /// Expanded per-instance task names (`model-metadata_1`,
    /// `model-metadata_2`, …; single instances keep the bare model name).
    pub fn task_names(&self) -> Vec<String> {
        let mut names = Vec::new();
        for t in &self.tasks {
            if t.count == 1 {
                names.push(t.model.clone());
            } else {
                for i in 1..=t.count {
                    names.push(format!("{}_{}", t.model, i));
                }
            }
        }
        names
    }

    /// Expanded per-instance model names (parallel to
    /// [`Self::task_names`]).
    pub fn task_models(&self) -> Vec<String> {
        let mut models = Vec::new();
        for t in &self.tasks {
            for _ in 0..t.count {
                models.push(t.model.clone());
            }
        }
        models
    }

    /// Enables edge offloading for this scenario.
    pub fn with_edge(mut self, edge: EdgeSpec) -> Self {
        self.edge = Some(edge);
        self
    }

    /// Static isolated-latency profiles per task instance (the priority
    /// queue `P` and the `τ^e` references). When the scenario has an
    /// [`EdgeSpec`], every profile additionally carries the *unloaded*
    /// offload latency (uplink serialization + RTT + edge inference +
    /// downlink serialization — no queueing), which is the `τ^e` HBO uses
    /// for the Edge resource.
    ///
    /// # Panics
    ///
    /// Panics if a task references a model missing from the zoo.
    pub fn profiles(&self) -> Vec<TaskProfile> {
        let zoo = self.zoo();
        self.task_models()
            .iter()
            .map(|m| {
                let p = TaskProfile::from_model(
                    zoo.get(m)
                        .unwrap_or_else(|| panic!("model {m:?} not in zoo")),
                );
                match &self.edge {
                    Some(edge) => {
                        let (_, best_local_ms) = p.best();
                        p.with_edge(edge.offload_estimate_ms(best_local_ms))
                    }
                    None => p,
                }
            })
            .collect()
    }

    /// Builds the fully placed scene.
    pub fn scene(&self) -> Scene {
        arscene::scenarios::scene_from_catalog(&self.objects, self.user_distance)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn table2_task_counts() {
        assert_eq!(ScenarioSpec::sc1_cf1().task_count(), 6);
        assert_eq!(ScenarioSpec::sc1_cf2().task_count(), 3);
    }

    #[test]
    fn task_names_expand_instances() {
        let names = ScenarioSpec::sc1_cf1().task_names();
        assert_eq!(names.len(), 6);
        assert!(names.contains(&"model-metadata_1".to_owned()));
        assert!(names.contains(&"model-metadata_2".to_owned()));
        assert!(names.contains(&"mnist".to_owned()));
    }

    #[test]
    fn profiles_resolve_against_the_zoo() {
        let profiles = ScenarioSpec::sc2_cf2().profiles();
        assert_eq!(profiles.len(), 3);
        assert_eq!(profiles[0].name(), "mnist");
    }

    #[test]
    fn scenes_match_catalogs() {
        assert_eq!(ScenarioSpec::sc1_cf1().scene().len(), 9);
        assert_eq!(ScenarioSpec::sc2_cf1().scene().len(), 7);
    }

    #[test]
    fn all_four_are_distinct() {
        let names: Vec<String> = ScenarioSpec::all_four()
            .into_iter()
            .map(|s| s.name)
            .collect();
        assert_eq!(names, vec!["SC1-CF1", "SC2-CF1", "SC1-CF2", "SC2-CF2"]);
    }
}
