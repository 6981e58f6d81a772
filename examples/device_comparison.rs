//! Runs the same MAR workload on both calibrated phones (Galaxy S22 and
//! Pixel 7) and shows how HBO adapts its allocation to each SoC — the
//! point of Table I's per-device affinities: the best delegate for a model
//! is a property of the phone, not the model.
//!
//! The two per-device activations run as a sweep on the deterministic
//! parallel runner (`--threads N` / `HBO_THREADS`); results print in
//! scenario order and a `RunnerReport` JSON line closes the output.
//!
//! ```text
//! cargo run --release --example device_comparison
//! ```

use hbo_core::HboConfig;
use hbo_suite::prelude::*;
use marsim::runner::{self, ObserveConfig, SweepJob};
use nnmodel::ModelZoo;

fn main() {
    let mut scenarios = vec![ScenarioSpec::sc1_cf1()];
    let mut s22 = ScenarioSpec::sc1_cf1();
    s22.device = DeviceProfile::galaxy_s22();
    s22.name = "SC1-CF1 (S22)".to_owned();
    scenarios.push(s22);

    // Both devices' activations are independent: one sweep, pinned to the
    // example's historic seed so the printed numbers stay put.
    let jobs: Vec<SweepJob> = scenarios
        .iter()
        .map(|spec| SweepJob::seeded(spec.name.clone(), spec.clone(), HboConfig::default(), 11))
        .collect();
    let sweep = runner::run_sweep(
        "device_comparison",
        jobs,
        11,
        runner::threads_or_exit(),
        &ObserveConfig::default(),
    );

    for (spec, outcome) in scenarios.iter().zip(&sweep.outcomes) {
        let zoo = ModelZoo::for_device(&spec.device.name);
        println!("== {} on {} ==", spec.name, spec.device.name);
        println!("static affinities (isolated best delegate per model):");
        for task in &spec.tasks {
            let m = zoo.get(&task.model).expect("model in zoo");
            let (d, l) = m.best_delegate();
            println!("  {:<22} -> {d} ({l:.1} ms isolated)", m.name());
        }

        let run = &outcome.value.run;
        println!(
            "HBO under load:  x = {:.2}, allocation = {}",
            run.best.point.x,
            run.best
                .point
                .allocation
                .iter()
                .map(|d| d.letter())
                .collect::<String>()
        );
        println!(
            "  quality {:.3}, normalized latency {:.3}, cost {:.3}\n",
            run.best.quality, run.best.epsilon, run.best.cost
        );
    }
    println!(
        "Note how the same taskset lands on different delegates per device —\n\
         the S22's NNAPI accepts models the Pixel 7's rejects (Table I NA cells),\n\
         and contention shifts the best choice away from the static affinity."
    );
    println!("{}", sweep.report.to_json());
}
