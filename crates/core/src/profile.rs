//! Static per-task latency profiles (the priority queue input `P` of
//! Algorithm 1, and the `τ^e` reference of Eq. 4).

use nnmodel::{Delegate, Model};

/// One AI task's isolated latency on each resource, profiled one time with
/// no other AI tasks and no virtual objects (Section IV-C: "a one-time
/// operation, thus incurring little inconvenience to the user").
#[derive(Debug, Clone, PartialEq)]
pub struct TaskProfile {
    name: String,
    /// Isolated latency (ms) indexed by [`Delegate::index`];
    /// `None` = incompatible (NA).
    latency_ms: [Option<f64>; Delegate::COUNT],
}

impl TaskProfile {
    /// Creates a profile from per-resource latencies in
    /// `[CPU, GPU, NNAPI, Edge]` order. Shorter slices (e.g. the paper's
    /// on-device-only `[CPU, GPU, NNAPI]`) are padded with `None` — no
    /// edge support — so existing 3-resource call sites stay valid.
    ///
    /// # Panics
    ///
    /// Panics if every entry is `None`, any latency is not positive, or
    /// more than [`Delegate::COUNT`] latencies are given.
    pub fn new(name: impl Into<String>, latency_ms: impl AsRef<[Option<f64>]>) -> Self {
        let given = latency_ms.as_ref();
        assert!(
            given.len() <= Delegate::COUNT,
            "more latencies than resources"
        );
        let mut latency_ms = [None; Delegate::COUNT];
        latency_ms[..given.len()].copy_from_slice(given);
        assert!(
            latency_ms.iter().any(Option::is_some),
            "task must support at least one resource"
        );
        for l in latency_ms.iter().flatten() {
            assert!(l.is_finite() && *l > 0.0, "invalid latency: {l}");
        }
        TaskProfile {
            name: name.into(),
            latency_ms,
        }
    }

    /// Returns the profile with the edge-offload latency estimate set to
    /// `ms` — the *unloaded* end-to-end estimate (uplink serialization +
    /// propagation + edge inference + downlink), excluding queueing, which
    /// only the `edgelink` simulation can measure.
    ///
    /// # Panics
    ///
    /// Panics if `ms` is not positive.
    pub fn with_edge(mut self, ms: f64) -> Self {
        assert!(ms.is_finite() && ms > 0.0, "invalid latency: {ms}");
        self.latency_ms[Delegate::Edge.index()] = Some(ms);
        self
    }

    /// Builds the profile of one instance of a calibrated model.
    pub fn from_model(model: &Model) -> Self {
        let mut latency_ms = [None; Delegate::COUNT];
        for d in Delegate::ALL {
            latency_ms[d.index()] = model.isolated_ms(d);
        }
        TaskProfile::new(model.name(), latency_ms)
    }

    /// The task's name.
    pub fn name(&self) -> &str {
        &self.name
    }

    /// Isolated latency on `delegate`, or `None` if incompatible.
    pub fn latency_on(&self, delegate: Delegate) -> Option<f64> {
        self.latency_ms[delegate.index()]
    }

    /// True if the task can run on `delegate`.
    pub fn supports(&self, delegate: Delegate) -> bool {
        self.latency_on(delegate).is_some()
    }

    /// The most suitable resource and its latency — `τ^e` of Eq. (4).
    pub fn best(&self) -> (Delegate, f64) {
        Delegate::ALL
            .into_iter()
            .filter_map(|d| self.latency_on(d).map(|l| (d, l)))
            .min_by(|a, b| a.1.total_cmp(&b.1))
            .expect("profile supports at least one resource")
    }

    /// The fastest on-device resource (CPU, GPU or NNAPI) and its
    /// latency, ignoring any edge-offload estimate; the first of tied
    /// minima.
    ///
    /// # Panics
    ///
    /// Panics if the task supports no on-device resource.
    pub fn best_on_device(&self) -> (Delegate, f64) {
        [Delegate::Cpu, Delegate::Gpu, Delegate::Nnapi]
            .into_iter()
            .filter_map(|d| self.latency_on(d).map(|l| (d, l)))
            .min_by(|a, b| a.1.total_cmp(&b.1))
            .expect("task supports no on-device resource")
    }

    /// The expected latency `τ^e` (lowest isolated latency).
    pub fn expected_latency(&self) -> f64 {
        self.best().1
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn best_and_expected() {
        let p = TaskProfile::new("t", [Some(40.0), Some(30.0), Some(10.0)]);
        assert_eq!(p.best(), (Delegate::Nnapi, 10.0));
        assert_eq!(p.expected_latency(), 10.0);
        assert_eq!(p.name(), "t");
    }

    #[test]
    fn na_resources() {
        let p = TaskProfile::new("t", [Some(40.0), None, Some(10.0)]);
        assert!(!p.supports(Delegate::Gpu));
        assert_eq!(p.latency_on(Delegate::Gpu), None);
        assert_eq!(p.best().0, Delegate::Nnapi);
    }

    #[test]
    fn from_model_matches_table() {
        let zoo = nnmodel::ModelZoo::pixel7();
        let p = TaskProfile::from_model(zoo.get("inception-v1-q").unwrap());
        assert_eq!(p.latency_on(Delegate::Nnapi), Some(8.7));
        assert_eq!(p.latency_on(Delegate::Gpu), Some(60.8));
        assert_eq!(p.best().0, Delegate::Nnapi);
    }

    #[test]
    fn with_edge_extends_a_local_profile() {
        let p = TaskProfile::new("t", [Some(40.0), Some(30.0), Some(10.0)]);
        assert!(!p.supports(Delegate::Edge));
        let p = p.with_edge(5.0);
        assert_eq!(p.latency_on(Delegate::Edge), Some(5.0));
        assert_eq!(p.best(), (Delegate::Edge, 5.0));
        assert_eq!(p.best_on_device(), (Delegate::Nnapi, 10.0));
    }

    #[test]
    #[should_panic(expected = "at least one resource")]
    fn all_na_panics() {
        TaskProfile::new("t", [None, None, None]);
    }

    #[test]
    #[should_panic(expected = "more latencies than resources")]
    fn too_many_latencies_panics() {
        TaskProfile::new("t", [Some(1.0); 5]);
    }

    #[test]
    #[should_panic(expected = "invalid latency")]
    fn negative_latency_panics() {
        TaskProfile::new("t", [Some(-1.0), None, None]);
    }
}
