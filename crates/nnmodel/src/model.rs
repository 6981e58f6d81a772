//! Model descriptions and delegate execution plans.

use simcore::SimDuration;
use soc::{DeviceProfile, SocProcs, Stage, StageSeq};

use crate::delegate::{Delegate, TaskKind};

/// Structure of a model's NNAPI execution: how its compute splits between
/// the NPU and the GPU-fallback path.
///
/// The paper's footnote 2: *"For tasks running on NNAPI, certain operators
/// not supported on NPU or TPU may run on GPU, further increasing GPU's
/// demand."* The fraction is what couples NNAPI-allocated tasks to the
/// render load.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct NnapiStructure {
    /// Fraction of NNAPI compute served by the NPU (`1.0` = fully
    /// supported model, `0.0` = full GPU fallback).
    pub npu_fraction: f64,
    /// Number of NPU/GPU alternations the partitioner produces.
    pub segments: usize,
}

impl NnapiStructure {
    /// Creates a structure.
    ///
    /// # Panics
    ///
    /// Panics if the fraction is outside `[0, 1]` or `segments == 0`.
    pub fn new(npu_fraction: f64, segments: usize) -> Self {
        assert!(
            (0.0..=1.0).contains(&npu_fraction),
            "npu_fraction out of range: {npu_fraction}"
        );
        assert!(segments > 0, "need at least one segment");
        NnapiStructure {
            npu_fraction,
            segments,
        }
    }
}

/// A calibrated AI model: measured isolated latencies per delegate plus
/// NNAPI partition structure. Construct via [`Model::new`] or take one from
/// [`crate::ModelZoo`].
#[derive(Debug, Clone, PartialEq)]
pub struct Model {
    name: String,
    kind: TaskKind,
    /// Isolated latency (ms) per delegate, `None` = incompatible (NA).
    latency_ms: [Option<f64>; Delegate::COUNT],
    nnapi: NnapiStructure,
}

impl Model {
    /// Creates a model from its Table I row.
    ///
    /// `gpu`, `nnapi`, `cpu` are the isolated latencies in milliseconds;
    /// `None` marks an incompatible delegate (NA in the table).
    ///
    /// # Panics
    ///
    /// Panics if every delegate is NA, or any latency is not positive.
    pub fn new(
        name: impl Into<String>,
        kind: TaskKind,
        gpu: Option<f64>,
        nnapi: Option<f64>,
        cpu: Option<f64>,
        nnapi_structure: NnapiStructure,
    ) -> Self {
        let latency_ms = {
            let mut l = [None; Delegate::COUNT];
            l[Delegate::Cpu.index()] = cpu;
            l[Delegate::Gpu.index()] = gpu;
            l[Delegate::Nnapi.index()] = nnapi;
            l
        };
        assert!(
            latency_ms.iter().any(Option::is_some),
            "model must support at least one delegate"
        );
        for l in latency_ms.iter().flatten() {
            assert!(l.is_finite() && *l > 0.0, "invalid latency: {l}");
        }
        Model {
            name: name.into(),
            kind,
            latency_ms,
            nnapi: nnapi_structure,
        }
    }

    /// The model's name as used in the paper.
    pub fn name(&self) -> &str {
        &self.name
    }

    /// The model's task kind.
    pub fn kind(&self) -> TaskKind {
        self.kind
    }

    /// Isolated latency on `delegate` in milliseconds, `None` if NA.
    pub fn isolated_ms(&self, delegate: Delegate) -> Option<f64> {
        self.latency_ms[delegate.index()]
    }

    /// True if the model can run on `delegate`.
    pub fn supports(&self, delegate: Delegate) -> bool {
        self.isolated_ms(delegate).is_some()
    }

    /// The delegate with the lowest isolated latency and that latency —
    /// the "static affinity" the paper's SMQ/SML baselines allocate to, and
    /// the `τ^e` reference of Eq. (4).
    pub fn best_delegate(&self) -> (Delegate, f64) {
        Delegate::ALL
            .into_iter()
            .filter_map(|d| self.isolated_ms(d).map(|l| (d, l)))
            .min_by(|a, b| a.1.total_cmp(&b.1))
            .expect("model supports at least one delegate")
    }

    /// The NNAPI partition structure.
    pub(crate) fn nnapi_structure(&self) -> NnapiStructure {
        self.nnapi
    }

    /// Lowers `(self, delegate)` to a stage sequence for the simulated SoC,
    /// calibrated so the sequence's nominal (isolated) latency equals
    /// [`Model::isolated_ms`]. Returns `None` if the delegate is NA.
    ///
    /// Plan shapes:
    ///
    /// * **CPU** — one compute stage occupying a CPU slot.
    /// * **GPU** — input/output copies (contention-free delays) around one
    ///   GPU compute stage.
    /// * **NNAPI** — copies around alternating NPU / GPU-fallback stages
    ///   according to [`NnapiStructure`].
    ///
    /// `Edge` never has an on-device plan: edge offload runs through the
    /// `edgelink` wireless-link/edge-server simulation, not the SoC, so
    /// this returns `None` for it (models never record an on-device
    /// latency for the edge delegate).
    pub fn plan(
        &self,
        delegate: Delegate,
        device: &DeviceProfile,
        procs: SocProcs,
    ) -> Option<StageSeq> {
        let total_ms = self.isolated_ms(delegate)?;
        let copy = device.copy_ms.min(total_ms / 4.0);
        let stages = match delegate {
            Delegate::Cpu => vec![Stage::compute(
                procs.cpu,
                SimDuration::from_millis_f64(total_ms),
            )],
            Delegate::Gpu => vec![
                Stage::delay(SimDuration::from_millis_f64(copy)),
                Stage::compute(
                    procs.gpu,
                    SimDuration::from_millis_f64(total_ms - 2.0 * copy),
                ),
                Stage::delay(SimDuration::from_millis_f64(copy)),
            ],
            Delegate::Nnapi => {
                let compute = total_ms - 2.0 * copy;
                let npu_total = compute * self.nnapi.npu_fraction;
                let gpu_total = compute - npu_total;
                let mut stages = vec![Stage::delay(SimDuration::from_millis_f64(copy))];
                let segs = self.nnapi.segments;
                for _ in 0..segs {
                    if npu_total > 0.0 {
                        stages.push(Stage::compute(
                            procs.npu,
                            SimDuration::from_millis_f64(npu_total / segs as f64),
                        ));
                    }
                    if gpu_total > 0.0 {
                        stages.push(Stage::compute(
                            procs.gpu,
                            SimDuration::from_millis_f64(gpu_total / segs as f64),
                        ));
                    }
                }
                stages.push(Stage::delay(SimDuration::from_millis_f64(copy)));
                stages
            }
            // Unreachable: models never record an isolated latency for
            // Edge, so `isolated_ms` above already returned `None`.
            Delegate::Edge => return None,
        };
        Some(StageSeq::new(stages))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> Model {
        Model::new(
            "sample",
            TaskKind::ImageClassification,
            Some(30.0),
            Some(10.0),
            Some(40.0),
            NnapiStructure::new(0.8, 2),
        )
    }

    #[test]
    fn accessors() {
        let m = sample();
        assert_eq!(m.name(), "sample");
        assert_eq!(m.kind(), TaskKind::ImageClassification);
        assert_eq!(m.isolated_ms(Delegate::Gpu), Some(30.0));
        assert!(m.supports(Delegate::Cpu));
        assert_eq!(
            Delegate::ALL.into_iter().filter(|&d| m.supports(d)).count(),
            3
        );
    }

    #[test]
    fn best_delegate_picks_minimum() {
        let (d, l) = sample().best_delegate();
        assert_eq!(d, Delegate::Nnapi);
        assert_eq!(l, 10.0);
    }

    #[test]
    fn na_delegates_have_no_plan() {
        let m = Model::new(
            "na-nnapi",
            TaskKind::ImageSegmentation,
            Some(20.0),
            None,
            Some(60.0),
            NnapiStructure::new(0.5, 1),
        );
        let dev = DeviceProfile::pixel7();
        let (_, procs) = dev.topology();
        assert!(m.plan(Delegate::Nnapi, &dev, procs).is_none());
        assert!(!m.supports(Delegate::Nnapi));
        assert_eq!(m.best_delegate().0, Delegate::Gpu);
    }

    #[test]
    fn plans_preserve_nominal_latency() {
        let m = sample();
        let dev = DeviceProfile::pixel7();
        let (_, procs) = dev.topology();
        for d in Delegate::ALL.into_iter().filter(|&d| m.supports(d)) {
            let plan = m.plan(d, &dev, procs).unwrap();
            let nominal = plan.nominal_total().as_millis_f64();
            let target = m.isolated_ms(d).unwrap();
            assert!(
                (nominal - target).abs() < 1e-6,
                "{d}: nominal {nominal} != target {target}"
            );
        }
    }

    #[test]
    fn nnapi_plan_touches_npu_and_gpu() {
        let m = sample();
        let dev = DeviceProfile::pixel7();
        let (_, procs) = dev.topology();
        let plan = m.plan(Delegate::Nnapi, &dev, procs).unwrap();
        let mut on_npu = 0.0;
        let mut on_gpu = 0.0;
        for s in plan.stages() {
            if let Stage::Compute { proc, work } = s {
                if *proc == procs.npu {
                    on_npu += work.as_millis_f64();
                } else if *proc == procs.gpu {
                    on_gpu += work.as_millis_f64();
                }
            }
        }
        assert!(on_npu > 0.0 && on_gpu > 0.0);
        // 80/20 split of the compute portion.
        assert!((on_npu / (on_npu + on_gpu) - 0.8).abs() < 1e-9);
    }

    #[test]
    fn fully_supported_nnapi_model_never_touches_gpu() {
        let m = Model::new(
            "pure-npu",
            TaskKind::ImageClassification,
            Some(30.0),
            Some(8.0),
            Some(35.0),
            NnapiStructure::new(1.0, 3),
        );
        let dev = DeviceProfile::pixel7();
        let (_, procs) = dev.topology();
        let plan = m.plan(Delegate::Nnapi, &dev, procs).unwrap();
        assert!(plan.stages().iter().all(|s| match s {
            Stage::Compute { proc, .. } => *proc != procs.gpu,
            Stage::Delay { .. } => true,
        }));
    }

    #[test]
    fn copies_shrink_for_tiny_models() {
        // A 1 ms model cannot afford 2 x 0.5 ms copies; the plan clamps
        // them to keep compute positive.
        let m = Model::new(
            "tiny",
            TaskKind::DigitClassification,
            Some(1.0),
            Some(1.0),
            Some(1.0),
            NnapiStructure::new(0.5, 1),
        );
        let dev = DeviceProfile::pixel7();
        let (_, procs) = dev.topology();
        for d in Delegate::ALL.into_iter().filter(|&d| m.supports(d)) {
            let plan = m.plan(d, &dev, procs).unwrap();
            assert!((plan.nominal_total().as_millis_f64() - 1.0).abs() < 1e-6);
        }
    }

    #[test]
    #[should_panic(expected = "at least one delegate")]
    fn all_na_panics() {
        Model::new(
            "bad",
            TaskKind::ImageClassification,
            None,
            None,
            None,
            NnapiStructure::new(0.5, 1),
        );
    }

    #[test]
    #[should_panic(expected = "npu_fraction out of range")]
    fn bad_fraction_panics() {
        NnapiStructure::new(1.5, 1);
    }
}
