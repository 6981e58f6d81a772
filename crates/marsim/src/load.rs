//! Memory-bandwidth coupling between rendering and inference.
//!
//! On a phone SoC every engine shares one LPDDR bus: heavy rasterization
//! saturates DRAM bandwidth and slows down NPU and CPU inference even when
//! their compute units are free. This is the second half of the paper's
//! Fig. 2 phenomenon — when virtual objects appear, *all* NNAPI tasks slow
//! down sharply, not just the operators that fall back to the GPU — and it
//! is why reducing the triangle count speeds AI tasks up across the board.
//!
//! The coupling is modeled quasi-statically: whenever the render load
//! changes, every AI stream's execution plan is rebuilt with its NPU and
//! CPU service times inflated by a factor linear in the GPU render
//! utilization (GPU compute stages are *not* inflated — they contend with
//! rendering directly through the processor-sharing server). Plans take
//! effect at each task's next inference, matching how a real interpreter
//! picks up contention between invocations.

use nnmodel::{Delegate, Model};
use simcore::SimDuration;
use soc::{DeviceProfile, SocProcs, Stage, StageSeq};

/// NPU service-time inflation coefficient. The NPU/TPU streams weights
/// and activations through DRAM with little cache, so it is hit hardest.
pub const BETA_NPU: f64 = 2.0;

/// CPU service-time inflation coefficient. Big cores hide most of the
/// traffic behind their caches.
pub const BETA_CPU: f64 = 0.5;

/// Render utilization below which the bus has headroom and inference is
/// unaffected. DRAM queueing is a threshold phenomenon: latency is flat
/// until the bus nears saturation, then climbs steeply.
pub const BANDWIDTH_KNEE: f64 = 0.65;

/// Congestion term: `((u - knee) / (1 - knee))²` above the knee, zero
/// below it.
pub fn congestion(utilization: f64) -> f64 {
    let u = utilization.clamp(0.0, 1.0);
    let over = ((u - BANDWIDTH_KNEE) / (1.0 - BANDWIDTH_KNEE)).max(0.0);
    over * over
}

/// GPU render utilization implied by a per-frame render cost: the
/// fraction of each vsync period the GPU spends rasterizing, capped at 1.
pub fn render_utilization(device: &DeviceProfile, visible_tris: f64) -> f64 {
    let frame_ms = device.render.gpu_frame(visible_tris).as_millis_f64();
    (frame_ms / device.frame_period.as_millis_f64()).min(1.0)
}

/// Applies the bandwidth coupling to an arbitrary stage sequence: NPU and
/// CPU compute stages are inflated by the congestion factor; GPU stages
/// and delays pass through unchanged.
pub(crate) fn inflate_stages(base: &StageSeq, procs: SocProcs, utilization: f64) -> StageSeq {
    let c = congestion(utilization);
    let npu_factor = 1.0 + BETA_NPU * c;
    let cpu_factor = 1.0 + BETA_CPU * c;
    let stages: Vec<Stage> = base
        .stages()
        .iter()
        .map(|s| match *s {
            Stage::Compute { proc, work } if proc == procs.npu => Stage::Compute {
                proc,
                work: SimDuration::from_millis_f64(work.as_millis_f64() * npu_factor),
            },
            Stage::Compute { proc, work } if proc == procs.cpu => Stage::Compute {
                proc,
                work: SimDuration::from_millis_f64(work.as_millis_f64() * cpu_factor),
            },
            other => other,
        })
        .collect();
    StageSeq::new(stages)
}

/// Builds a model's execution plan for a delegate with bandwidth inflation
/// applied for the given render utilization. Returns `None` for
/// incompatible (NA) pairs.
///
/// With `utilization = 0` (no objects on screen) this is exactly the
/// calibrated Table I plan.
pub(crate) fn inflated_plan(
    model: &Model,
    delegate: Delegate,
    device: &DeviceProfile,
    procs: SocProcs,
    utilization: f64,
) -> Option<StageSeq> {
    let base = model.plan(delegate, device, procs)?;
    Some(inflate_stages(&base, procs, utilization))
}

#[cfg(test)]
mod tests {
    use super::*;
    use nnmodel::ModelZoo;

    #[test]
    fn zero_utilization_is_the_calibrated_plan() {
        let device = DeviceProfile::pixel7();
        let (_, procs) = device.topology();
        let zoo = ModelZoo::pixel7();
        for m in zoo.iter() {
            for d in Delegate::ALL {
                let base = m.plan(d, &device, procs);
                let inflated = inflated_plan(m, d, &device, procs, 0.0);
                assert_eq!(base, inflated, "{} on {d}", m.name());
            }
        }
    }

    #[test]
    fn inflation_slows_npu_most() {
        let device = DeviceProfile::pixel7();
        let (_, procs) = device.topology();
        let zoo = ModelZoo::pixel7();
        let m = zoo.get("inception-v1-q").unwrap(); // NPU-heavy NNAPI plan
        let base = m.plan(Delegate::Nnapi, &device, procs).unwrap();
        let hot = inflated_plan(m, Delegate::Nnapi, &device, procs, 1.0).unwrap();
        let ratio = hot.nominal_total().as_millis_f64() / base.nominal_total().as_millis_f64();
        // Mostly-NPU model: close to 1 + BETA_NPU (minus copies).
        assert!(ratio > 2.0, "ratio = {ratio}");

        let cpu_hot = inflated_plan(m, Delegate::Cpu, &device, procs, 1.0).unwrap();
        let cpu_base = m.plan(Delegate::Cpu, &device, procs).unwrap();
        let cpu_ratio =
            cpu_hot.nominal_total().as_millis_f64() / cpu_base.nominal_total().as_millis_f64();
        assert!((cpu_ratio - (1.0 + BETA_CPU)).abs() < 1e-6);
        assert!(cpu_ratio < ratio);
    }

    #[test]
    fn gpu_delegate_plans_are_not_inflated() {
        // GPU compute contends with rendering through the PS server; no
        // double counting.
        let device = DeviceProfile::pixel7();
        let (_, procs) = device.topology();
        let zoo = ModelZoo::pixel7();
        let m = zoo.get("model-metadata").unwrap();
        let base = m.plan(Delegate::Gpu, &device, procs).unwrap();
        let hot = inflated_plan(m, Delegate::Gpu, &device, procs, 1.0).unwrap();
        assert_eq!(base, hot);
    }

    #[test]
    fn congestion_has_a_knee() {
        assert_eq!(congestion(0.0), 0.0);
        assert_eq!(congestion(BANDWIDTH_KNEE), 0.0);
        assert_eq!(congestion(1.0), 1.0);
        // Convex above the knee.
        assert!(congestion(0.7) < 0.5 * congestion(0.9));
    }

    #[test]
    fn below_knee_plans_are_uninflated() {
        let device = DeviceProfile::pixel7();
        let (_, procs) = device.topology();
        let zoo = ModelZoo::pixel7();
        let m = zoo.get("mobilenet-v1").unwrap();
        let base = m.plan(Delegate::Nnapi, &device, procs);
        let light = inflated_plan(m, Delegate::Nnapi, &device, procs, 0.4);
        assert_eq!(base, light);
    }

    #[test]
    fn utilization_saturates_at_one() {
        let device = DeviceProfile::pixel7();
        assert_eq!(render_utilization(&device, 0.0), 0.6 / 16.7);
        assert_eq!(render_utilization(&device, 1e9), 1.0);
        let mid = render_utilization(&device, 400_000.0);
        assert!(mid > 0.6 && mid < 0.9, "mid = {mid}");
    }
}
