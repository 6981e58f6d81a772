//! Power and energy accounting for the simulated SoC.
//!
//! The paper's lineage (eAR, IEEE TMC 2023) is energy-driven, and its
//! Section VI discusses offloading the optimizer to save device energy.
//! This module makes the trade quantifiable in the reproduction: each
//! processor has an idle and an active power draw, and the simulator's
//! time-weighted activity tracking converts directly into Joules.
//!
//! The numbers are representative of published phone SoC measurements
//! (big-core clusters ~2 W active, mobile GPUs ~2.5 W under load, NPUs
//! ~1 W — an NPU's whole advantage is perf/W), not device-exact; the
//! energy *comparisons* between configurations are the meaningful output.

use simcore::SimTime;

use crate::sim::SocSim;
use crate::topology::ProcId;

/// Idle/active power of one processor, in watts.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ProcessorPower {
    /// Power drawn when no job is resident.
    pub idle_w: f64,
    /// Additional power per unit of activity (one running/resident job
    /// counts as activity 1; a processor-sharing server with `n` resident
    /// jobs is still one physical engine, so its activity saturates at 1).
    pub active_w: f64,
}

impl ProcessorPower {
    /// Creates a power pair.
    ///
    /// # Panics
    ///
    /// Panics if either value is negative or not finite.
    pub fn new(idle_w: f64, active_w: f64) -> Self {
        assert!(
            idle_w.is_finite() && idle_w >= 0.0 && active_w.is_finite() && active_w >= 0.0,
            "invalid power values"
        );
        ProcessorPower { idle_w, active_w }
    }
}

/// Power model of a device: one entry per processor of its topology.
#[derive(Debug, Clone, PartialEq)]
pub struct PowerModel {
    entries: Vec<(String, ProcessorPower)>,
}

impl PowerModel {
    /// Builds a model from `(processor name, power)` pairs.
    ///
    /// # Panics
    ///
    /// Panics if `entries` is empty.
    pub fn new(entries: Vec<(String, ProcessorPower)>) -> Self {
        assert!(!entries.is_empty(), "power model needs processors");
        PowerModel { entries }
    }

    /// A representative model for the standard phone topology built by
    /// [`crate::DeviceProfile::topology`] (cpu, cpu_render, gpu, npu).
    pub fn phone_default() -> Self {
        PowerModel::new(vec![
            ("cpu".to_owned(), ProcessorPower::new(0.25, 2.0)),
            ("cpu_render".to_owned(), ProcessorPower::new(0.10, 0.9)),
            ("gpu".to_owned(), ProcessorPower::new(0.20, 2.5)),
            ("npu".to_owned(), ProcessorPower::new(0.05, 1.0)),
        ])
    }

    /// The power entry for a processor name, if modeled.
    pub(crate) fn for_name(&self, name: &str) -> Option<ProcessorPower> {
        self.entries
            .iter()
            .find(|(n, _)| n == name)
            .map(|(_, p)| *p)
    }
}

/// An energy breakdown over a simulation span.
#[derive(Debug, Clone, PartialEq)]
pub struct EnergyReport {
    /// `(processor name, energy in joules)` per processor.
    pub per_processor_j: Vec<(String, f64)>,
    /// Span of simulated time covered, in seconds.
    pub span_secs: f64,
}

impl EnergyReport {
    /// Total energy across processors, in joules.
    pub fn total_j(&self) -> f64 {
        self.per_processor_j.iter().map(|(_, j)| j).sum()
    }

    /// Average power across the span, in watts.
    pub fn average_w(&self) -> f64 {
        if self.span_secs <= 0.0 {
            return 0.0;
        }
        self.total_j() / self.span_secs
    }
}

impl SocSim {
    /// Estimates the energy consumed since simulation start under `model`:
    /// for each processor, `idle_w · span + active_w · busy_time`, where
    /// busy time is the time-weighted activity (capped at 1 engine for
    /// processor-sharing servers).
    ///
    /// Processors missing from the model contribute zero (and are listed
    /// with zero energy so the omission is visible).
    pub fn energy_report(&self, model: &PowerModel) -> EnergyReport {
        let now: SimTime = self.now();
        let span_secs = now.as_secs_f64();
        let per_processor_j = self
            .topology()
            .iter()
            .map(|(id, spec)| (id, spec.name.clone()))
            .collect::<Vec<(ProcId, String)>>()
            .into_iter()
            .map(|(id, name)| {
                let metrics = self.processor_metrics(id);
                let energy = match model.for_name(&name) {
                    Some(p) => p.idle_w * span_secs + p.active_w * metrics.avg_busy * span_secs,
                    None => 0.0,
                };
                (name, energy)
            })
            .collect();
        EnergyReport {
            per_processor_j,
            span_secs,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{DeviceProfile, SocSim, Stage, StreamSpec};
    use simcore::SimDuration;

    #[test]
    fn idle_soc_draws_idle_power() {
        let dev = DeviceProfile::pixel7();
        let (topo, _) = dev.topology();
        let mut sim = SocSim::new(topo);
        sim.run_until(SimTime::from_secs_f64(10.0));
        let report = sim.energy_report(&PowerModel::phone_default());
        // 0.25 + 0.10 + 0.20 + 0.05 = 0.6 W idle for 10 s = 6 J.
        assert!(
            (report.total_j() - 6.0).abs() < 1e-6,
            "{}",
            report.total_j()
        );
        assert!((report.average_w() - 0.6).abs() < 1e-9);
    }

    #[test]
    fn busy_cpu_draws_more() {
        let dev = DeviceProfile::pixel7();
        let (topo, procs) = dev.topology();
        let mut sim = SocSim::new(topo);
        // Saturate one CPU lane (50% of the 2-slot cluster).
        sim.add_stream(StreamSpec::new(
            vec![Stage::compute(
                procs.cpu,
                SimDuration::from_millis_f64(10.0),
            )],
            SimDuration::ZERO,
        ));
        sim.run_until(SimTime::from_secs_f64(10.0));
        let report = sim.energy_report(&PowerModel::phone_default());
        let cpu_j = report
            .per_processor_j
            .iter()
            .find(|(n, _)| n == "cpu")
            .unwrap()
            .1;
        // idle 0.25*10 + active 2.0 * 0.5 busy * 10 = 2.5 + 10 = 12.5 J.
        assert!((cpu_j - 12.5).abs() < 0.3, "cpu_j = {cpu_j}");
        assert!(report.total_j() > 6.0);
    }

    #[test]
    fn ps_activity_saturates_at_one_engine() {
        let dev = DeviceProfile::pixel7();
        let (topo, procs) = dev.topology();
        let mut sim = SocSim::new(topo);
        // Two always-resident GPU streams: residency 2, but one engine.
        for _ in 0..2 {
            sim.add_stream(StreamSpec::new(
                vec![Stage::compute(
                    procs.gpu,
                    SimDuration::from_millis_f64(20.0),
                )],
                SimDuration::ZERO,
            ));
        }
        sim.run_until(SimTime::from_secs_f64(5.0));
        let report = sim.energy_report(&PowerModel::phone_default());
        let gpu_j = report
            .per_processor_j
            .iter()
            .find(|(n, _)| n == "gpu")
            .unwrap()
            .1;
        // idle 0.2*5 + active 2.5*1.0*5 = 13.5 J, never more.
        assert!(gpu_j <= 13.5 + 1e-6, "gpu_j = {gpu_j}");
        assert!(gpu_j > 13.0);
    }

    #[test]
    fn unmodeled_processor_contributes_zero() {
        let dev = DeviceProfile::pixel7();
        let (topo, _) = dev.topology();
        let mut sim = SocSim::new(topo);
        sim.run_until(SimTime::from_secs_f64(1.0));
        let model = PowerModel::new(vec![("gpu".to_owned(), ProcessorPower::new(0.2, 2.5))]);
        let report = sim.energy_report(&model);
        assert!((report.total_j() - 0.2).abs() < 1e-9);
        assert_eq!(report.per_processor_j.len(), 4);
    }

    #[test]
    #[should_panic(expected = "invalid power")]
    fn negative_power_panics() {
        ProcessorPower::new(-1.0, 1.0);
    }
}
