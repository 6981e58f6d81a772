//! Regenerates **Figure 7**: HBO's convergence robustness — six
//! independent runs (different random initializations) of the same
//! activation on SC1-CF2 and SC2-CF2, all expected to converge to
//! similar-cost solutions even when the chosen configuration differs.
//!
//! The 2 scenarios × 6 replicates run as one flat job list on the
//! deterministic parallel runner (`--threads N` / `HBO_THREADS`).

use hbo_bench::{harness, seeds, Series};
use hbo_core::HboConfig;
use marsim::runner::{self, ObserveConfig, SweepJob, SweepOutcome};
use marsim::ScenarioSpec;

fn print_study(name: &str, outcomes: &[&SweepOutcome]) {
    println!("== Fig. 7 — best-cost convergence across 6 runs ({name}) ==");
    let mut finals = Vec::new();
    for (run_idx, outcome) in outcomes.iter().enumerate() {
        let run = &outcome.run;
        let mut s = Series::new(format!(
            "run {} (x={:.2}, c=[{}], alloc={})",
            run_idx + 1,
            run.best.point.x,
            run.best
                .point
                .c
                .iter()
                .map(|v| format!("{v:.2}"))
                .collect::<Vec<_>>()
                .join(", "),
            run.best
                .point
                .allocation
                .iter()
                .map(|d| d.letter())
                .collect::<String>()
        ));
        for (i, c) in run.best_cost_trace.iter().enumerate() {
            s.push((i + 1) as f64, *c);
        }
        print!("{}", s.render_summary());
        finals.push(run.best.cost);
    }
    let mean = finals.iter().sum::<f64>() / finals.len() as f64;
    let spread = finals.iter().cloned().fold(f64::MIN, f64::max)
        - finals.iter().cloned().fold(f64::MAX, f64::min);
    println!(
        "   final best costs: [{}]  mean {:.3}, spread {:.3}\n",
        finals
            .iter()
            .map(|c| format!("{c:+.3}"))
            .collect::<Vec<_>>()
            .join(", "),
        mean,
        spread
    );
}

fn main() {
    let config = HboConfig::default();
    let threads = runner::threads_or_exit();
    let specs = [ScenarioSpec::sc1_cf2(), ScenarioSpec::sc2_cf2()];
    // Flat scenario × replicate job list, each replicate pinned to the
    // historic seed offset so the published series stay bit-identical.
    let mut jobs = Vec::new();
    for spec in &specs {
        for run_idx in 0..6u64 {
            jobs.push(SweepJob::seeded(
                spec.name.clone(),
                spec.clone(),
                config.clone(),
                seeds::FIG7 + run_idx,
            ));
        }
    }
    let sweep = runner::run_sweep(
        "fig7",
        jobs,
        seeds::FIG7,
        threads,
        &ObserveConfig::default(),
    );

    for spec in &specs {
        print_study(&spec.name, &sweep.labeled(&spec.name));
    }
    println!(
        "Paper check: despite different initial datapoints, all runs converge to a\n\
         similar-cost solution (robustness to BO initialization), even when the\n\
         chosen allocation or ratio differs between runs."
    );
    harness::emit_runner_report(&sweep.report);
}
