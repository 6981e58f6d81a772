//! Extension study: the energy cost of each system's configuration.
//!
//! The paper optimizes quality and latency; its lineage (eAR) and its
//! Section VI discussion are energy-driven. This study measures, under a
//! representative phone power model, how much SoC energy each of the
//! Fig. 5 configurations burns over a 30-second SC1-CF1 session — showing
//! that HBO's triangle reduction also pays an energy dividend (less GPU
//! rasterization, less DRAM-inflated NPU time).

//!
//! The five 30-second measurement sessions are independent simulations;
//! they run concurrently on the deterministic parallel runner
//! (`--threads N` / `HBO_THREADS`).

use hbo_bench::{harness, seeds, Table};
use hbo_core::{Baseline, HboConfig};
use marsim::experiment::compare_baselines;
use marsim::{runner, MarApp, ScenarioSpec};
use soc::PowerModel;

const SPAN_SECS: f64 = 30.0;

fn main() {
    let spec = ScenarioSpec::sc1_cf1();
    let result = compare_baselines(&spec, &HboConfig::default(), seeds::FIG5);
    let power = PowerModel::phone_default();

    let threads = runner::threads_or_exit();
    let (reports, runner_report) =
        runner::run_map("energy_analysis", threads, &Baseline::ALL, |_, &b| {
            let outcome = result.outcome(b);
            let mut app = MarApp::new(&spec);
            app.place_all_objects();
            app.set_allocation(&outcome.allocation);
            if b == Baseline::Sml {
                app.set_uniform_ratio(outcome.x);
            } else {
                app.set_triangle_ratio(outcome.x);
            }
            app.run_for_secs(SPAN_SECS);
            app.energy_report(&power)
        });

    let mut table = Table::new(
        format!("Energy over a {SPAN_SECS:.0}-second SC1-CF1 session"),
        vec![
            "system".into(),
            "x".into(),
            "total J".into(),
            "avg W".into(),
            "cpu J".into(),
            "gpu J".into(),
            "npu J".into(),
            "J per inference".into(),
        ],
    );
    for (&b, report) in Baseline::ALL.iter().zip(&reports) {
        let outcome = result.outcome(b);
        let per = |name: &str| {
            report
                .per_processor_j
                .iter()
                .find(|(n, _)| n == name)
                .map(|(_, j)| *j)
                .unwrap_or(0.0)
        };
        // ~10 inferences/s/task at the task period.
        let inferences = spec.task_count() as f64 * SPAN_SECS * 1000.0 / marsim::TASK_PERIOD_MS;
        table.row(vec![
            b.label().to_owned(),
            format!("{:.2}", outcome.x),
            format!("{:.1}", report.total_j()),
            format!("{:.2}", report.average_w()),
            format!("{:.1}", per("cpu")),
            format!("{:.1}", per("gpu")),
            format!("{:.1}", per("npu")),
            format!("{:.3}", report.total_j() / inferences),
        ]);
    }
    println!("{}", table.render());
    println!(
        "Check: HBO's decimation cuts GPU energy vs the full-quality systems\n\
         (BNT, AllN) while its allocation keeps the NPU — the most efficient\n\
         engine — loaded with the tasks it serves best."
    );
    harness::emit_runner_report(&runner_report);
}
