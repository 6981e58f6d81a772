//! Operator-level model graphs and the fine-grained per-operator
//! scheduler that the paper argues against.
//!
//! Section II: *"rather than allocating each AI operation (fine-grain), we
//! choose a coarser-grained solution … due to inter-processor
//! communication delays and inefficiencies, the delegate/CPU allocation
//! choice that maximizes the AI performance still highly depends on the
//! specific AI model and SoC … finding the allocation for each one of the
//! AI tasks' operations jointly to triangle count manipulation makes the
//! problem too complex to solve rapidly."*
//!
//! This module makes that argument testable: every zoo model exposes a
//! synthesized [`OpGraph`] (a linear chain of operators with per-op
//! compute fractions and NPU-support flags consistent with the model's
//! [`crate::NnapiStructure`]), and [`fine_grained_plan`] implements the
//! BAND-style greedy scheduler — each operator on its individually fastest
//! compatible processor, paying a copy penalty at every processor
//! transition. The `finegrained` experiment then shows where the greedy
//! per-op choice wins (isolation) and where it collapses (under render
//! load, which it cannot see).

use simcore::SimDuration;
use soc::{DeviceProfile, SocProcs, Stage, StageSeq};

use crate::delegate::Delegate;
use crate::model::Model;

/// The kind of a neural-network operator.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum OpKind {
    /// 2-D convolution (the bulk of vision-model compute).
    Conv2d,
    /// Depthwise separable convolution.
    DepthwiseConv,
    /// Pooling (max/avg).
    Pool,
    /// Fully connected / matmul.
    FullyConnected,
    /// Elementwise activation.
    Activation,
    /// Normalization (batch/layer).
    Normalization,
    /// Model-specific post-processing (NMS, argmax decode, …) — the ops
    /// that typically lack NPU kernels.
    PostProcess,
}

impl OpKind {
    fn cycle() -> [OpKind; 6] {
        [
            OpKind::Conv2d,
            OpKind::DepthwiseConv,
            OpKind::Pool,
            OpKind::Conv2d,
            OpKind::Normalization,
            OpKind::Activation,
        ]
    }
}

/// One operator of a model graph.
#[derive(Debug, Clone, PartialEq)]
pub struct Operator {
    /// Stable name, e.g. `conv_3`.
    pub name: String,
    /// Operator kind.
    pub kind: OpKind,
    /// Fraction of the model's total compute this operator accounts for
    /// (all fractions sum to 1).
    pub work_fraction: f64,
    /// Whether the NPU has a kernel for this operator.
    pub npu_supported: bool,
}

/// A linear operator chain (mobile vision models are predominantly
/// sequential; branches are folded into their join order).
#[derive(Debug, Clone, PartialEq)]
pub struct OpGraph {
    ops: Vec<Operator>,
}

impl OpGraph {
    /// Synthesizes the operator graph of a zoo model: `n_ops` operators
    /// whose NPU-supported compute share equals the model's calibrated
    /// [`crate::NnapiStructure::npu_fraction`], with the unsupported share
    /// concentrated in post-processing and the tail (where real models
    /// fall off the NPU).
    ///
    /// Deterministic per model name.
    pub fn synthesize(model: &Model, n_ops: usize) -> OpGraph {
        assert!(n_ops >= 2, "need at least two operators");
        let frac = model.nnapi_structure().npu_fraction;
        // Work profile: front-loaded (early convs dominate), with a light
        // tail — a plausible mobile-CNN shape.
        let weights: Vec<f64> = (0..n_ops).map(|i| 1.0 / (1.0 + 0.35 * i as f64)).collect();
        let total: f64 = weights.iter().sum();
        let kinds = OpKind::cycle();
        let mut ops: Vec<Operator> = weights
            .iter()
            .enumerate()
            .map(|(i, w)| Operator {
                name: format!("op_{i}"),
                kind: if i == n_ops - 1 {
                    OpKind::PostProcess
                } else if i == n_ops - 2 {
                    OpKind::FullyConnected
                } else {
                    kinds[i % kinds.len()]
                },
                work_fraction: w / total,
                npu_supported: true,
            })
            .collect();
        // Mark the tail unsupported until the unsupported share reaches
        // (1 - frac): post-processing first, then backwards.
        let mut unsupported = 0.0;
        for op in ops.iter_mut().rev() {
            if unsupported + 1e-12 >= 1.0 - frac {
                break;
            }
            op.npu_supported = false;
            unsupported += op.work_fraction;
        }
        OpGraph { ops }
    }

    /// The operators in execution order.
    pub fn ops(&self) -> &[Operator] {
        &self.ops
    }

    /// Number of operators.
    pub fn len(&self) -> usize {
        self.ops.len()
    }

    /// Never true: graphs have at least two operators.
    pub fn is_empty(&self) -> bool {
        self.ops.is_empty()
    }
}

/// Which engine a fine-grained scheduler put an operator on.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum OpPlacement {
    /// CPU cluster.
    Cpu,
    /// GPU.
    Gpu,
    /// NPU/TPU.
    Npu,
}

/// The outcome of [`fine_grained_plan`]: the per-operator placements and
/// the lowered stage sequence.
#[derive(Debug, Clone, PartialEq)]
pub struct FineGrainedPlan {
    /// Placement per operator, in graph order.
    pub placements: Vec<OpPlacement>,
    /// The executable plan, including inter-processor copy delays.
    pub stages: StageSeq,
    /// Number of processor transitions (each paid a copy penalty).
    pub transitions: usize,
}

/// BAND-style greedy per-operator scheduling: each operator goes to the
/// processor with the lowest *isolated* per-op time, derived from the
/// model's Table I totals (`time_op(r) = total_r × work_fraction`), with
/// the NPU admissible only for supported ops. Every processor transition
/// inserts a copy delay of `device.copy_ms`.
///
/// This is exactly the static reasoning the paper criticizes: it is
/// optimal in isolation but blind to contention — and it fragments the
/// execution across engines, paying transition costs the coarse delegates
/// avoid.
///
/// Returns `None` if the model supports no delegate to derive times from.
pub fn fine_grained_plan(
    model: &Model,
    graph: &OpGraph,
    device: &DeviceProfile,
    procs: SocProcs,
) -> Option<FineGrainedPlan> {
    let cpu_total = model.isolated_ms(Delegate::Cpu)?;
    let gpu_total = model.isolated_ms(Delegate::Gpu)?;
    // Per-op NPU speed derived from the NNAPI calibration: the NNAPI total
    // spends `npu_fraction` of compute on the NPU; solve for the NPU's
    // effective full-model time.
    let npu_total = model.isolated_ms(Delegate::Nnapi).map(|nnapi_total| {
        let s = model.nnapi_structure().npu_fraction.max(1e-6);
        let gpu_part = (1.0 - s) * gpu_total;
        ((nnapi_total - 2.0 * device.copy_ms - gpu_part) / s).max(0.1)
    });

    let mut placements = Vec::with_capacity(graph.len());
    for op in graph.ops() {
        let mut best = (OpPlacement::Cpu, cpu_total);
        if gpu_total < best.1 {
            best = (OpPlacement::Gpu, gpu_total);
        }
        if op.npu_supported {
            if let Some(npu_total) = npu_total {
                if npu_total < best.1 {
                    best = (OpPlacement::Npu, npu_total);
                }
            }
        }
        placements.push(best.0);
    }

    let copy = SimDuration::from_millis_f64(device.copy_ms);
    let mut stages = vec![Stage::delay(copy)];
    let mut transitions = 0;
    let mut prev: Option<OpPlacement> = None;
    for (op, &placement) in graph.ops().iter().zip(&placements) {
        if prev.is_some() && prev != Some(placement) {
            stages.push(Stage::delay(copy));
            transitions += 1;
        }
        let total = match placement {
            OpPlacement::Cpu => cpu_total,
            OpPlacement::Gpu => gpu_total,
            OpPlacement::Npu => npu_total.expect("npu placement implies nnapi support"),
        };
        let proc = match placement {
            OpPlacement::Cpu => procs.cpu,
            OpPlacement::Gpu => procs.gpu,
            OpPlacement::Npu => procs.npu,
        };
        stages.push(Stage::compute(
            proc,
            SimDuration::from_millis_f64(total * op.work_fraction),
        ));
        prev = Some(placement);
    }
    stages.push(Stage::delay(copy));
    Some(FineGrainedPlan {
        placements,
        stages: StageSeq::new(stages),
        transitions,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::zoo::ModelZoo;

    fn model() -> Model {
        ModelZoo::pixel7().get("mobilenetDetv1").unwrap().clone()
    }

    #[test]
    fn fractions_sum_to_one() {
        let g = OpGraph::synthesize(&model(), 12);
        let sum: f64 = g.ops().iter().map(|o| o.work_fraction).sum();
        assert!((sum - 1.0).abs() < 1e-9);
        assert_eq!(g.len(), 12);
        assert!(!g.is_empty());
    }

    #[test]
    fn npu_support_matches_structure() {
        let m = model();
        let g = OpGraph::synthesize(&m, 16);
        let target = m.nnapi_structure().npu_fraction;
        let supported: f64 = g
            .ops()
            .iter()
            .filter(|o| o.npu_supported)
            .map(|o| o.work_fraction)
            .sum();
        // Tail-marking overshoots by at most one op's fraction.
        assert!(
            (supported - target).abs() < 0.15,
            "supported {supported} vs target {target}"
        );
        // Post-processing is never NPU-supported for partially-supported
        // models.
        assert!(!g.ops().last().unwrap().npu_supported);
    }

    #[test]
    fn segments_merge_contiguous_runs() {
        let g = OpGraph::synthesize(&model(), 10);
        // Contiguous `(npu_supported, work_fraction)` runs — what a real
        // NNAPI partitioner turns into subgraphs.
        let mut segs: Vec<(bool, f64)> = Vec::new();
        for op in g.ops() {
            match segs.last_mut() {
                Some((supported, frac)) if *supported == op.npu_supported => {
                    *frac += op.work_fraction;
                }
                _ => segs.push((op.npu_supported, op.work_fraction)),
            }
        }
        // Alternation is minimal: supported head + unsupported tail.
        assert!(segs.len() <= 3, "{segs:?}");
        let total: f64 = segs.iter().map(|(_, f)| f).sum();
        assert!((total - 1.0).abs() < 1e-9);
        // No two adjacent segments share the support flag.
        for w in segs.windows(2) {
            assert_ne!(w[0].0, w[1].0);
        }
    }

    #[test]
    fn synthesis_is_deterministic() {
        let m = model();
        assert_eq!(OpGraph::synthesize(&m, 12), OpGraph::synthesize(&m, 12));
    }

    #[test]
    fn fine_grained_plan_places_supported_ops_on_npu() {
        let m = model(); // NNAPI-affine: NPU is fastest
        let dev = DeviceProfile::pixel7();
        let (_, procs) = dev.topology();
        let g = OpGraph::synthesize(&m, 12);
        let plan = fine_grained_plan(&m, &g, &dev, procs).unwrap();
        let npu_ops = plan
            .placements
            .iter()
            .filter(|&&p| p == OpPlacement::Npu)
            .count();
        assert!(npu_ops > 0);
        // Unsupported ops landed elsewhere.
        for (op, p) in g.ops().iter().zip(&plan.placements) {
            if !op.npu_supported {
                assert_ne!(*p, OpPlacement::Npu, "{}", op.name);
            }
        }
        assert!(plan.transitions >= 1);
    }

    #[test]
    fn fine_grained_nominal_time_beats_worst_delegate() {
        // In isolation the greedy per-op plan should be at least as good
        // as the worst single delegate (it can only pick faster engines),
        // though it pays transition copies.
        let m = model();
        let dev = DeviceProfile::pixel7();
        let (_, procs) = dev.topology();
        let g = OpGraph::synthesize(&m, 12);
        let plan = fine_grained_plan(&m, &g, &dev, procs).unwrap();
        let nominal = plan.stages.nominal_total().as_millis_f64();
        let worst = Delegate::ALL
            .into_iter()
            .filter_map(|d| m.isolated_ms(d))
            .fold(f64::MIN, f64::max);
        assert!(nominal < worst, "nominal {nominal} vs worst {worst}");
    }

    #[test]
    fn gpu_affine_model_avoids_npu() {
        let zoo = ModelZoo::pixel7();
        let m = zoo.get("model-metadata").unwrap(); // GPU-affine, poor NPU
        let dev = DeviceProfile::pixel7();
        let (_, procs) = dev.topology();
        let g = OpGraph::synthesize(m, 10);
        let plan = fine_grained_plan(m, &g, &dev, procs).unwrap();
        // Every op on the GPU: no transitions, pure GPU-delegate behavior.
        assert!(plan.placements.iter().all(|&p| p == OpPlacement::Gpu));
        assert_eq!(plan.transitions, 0);
    }

    #[test]
    fn na_delegates_are_handled() {
        let zoo = ModelZoo::pixel7();
        let m = zoo.get("deeplabv3").unwrap(); // NNAPI NA on Pixel 7
        let dev = DeviceProfile::pixel7();
        let (_, procs) = dev.topology();
        let g = OpGraph::synthesize(m, 8);
        let plan = fine_grained_plan(m, &g, &dev, procs).unwrap();
        assert!(plan.placements.iter().all(|&p| p != OpPlacement::Npu));
    }
}
