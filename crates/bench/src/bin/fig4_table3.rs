//! Regenerates **Figure 4 and Table III**: HBO's chosen AI allocation,
//! triangle-count ratio, and best-cost convergence across the four
//! scenario combinations (SC1/SC2 × CF1/CF2) on the Pixel 7.
//!
//! Paper protocol (Section V-B): weight `w = 2.5`, dataset seeded with 5
//! random configurations, then 15 BO iterations; HBO activates after all
//! objects are placed with all AI tasks running.

use hbo_bench::{harness, seeds, Series, Table};
use hbo_core::HboConfig;
use marsim::runner::{self, ObserveConfig, SweepJob};
use marsim::ScenarioSpec;

fn main() {
    let config = HboConfig::default();
    let threads = runner::threads_or_exit();
    // The four scenarios as a flat parallel job list, each pinned to the
    // historic figure seed so the published numbers stay bit-identical.
    let jobs: Vec<SweepJob> = ScenarioSpec::all_four()
        .into_iter()
        .map(|spec| SweepJob::seeded(spec.name.clone(), spec, config.clone(), seeds::FIG4))
        .collect();
    let sweep = runner::run_sweep(
        "fig4_table3",
        jobs,
        seeds::FIG4,
        threads,
        &ObserveConfig::default(),
    );
    let runs: Vec<_> = ScenarioSpec::all_four()
        .into_iter()
        .zip(&sweep.outcomes)
        .map(|(spec, o)| (spec, o.value.run.clone()))
        .collect();

    // Fig. 4a — allocation proportions chosen per scenario.
    let mut t = Table::new(
        "Fig. 4a — AI task allocation proportions chosen by HBO",
        vec![
            "scenario".into(),
            "CPU".into(),
            "GPU".into(),
            "NNAPI".into(),
        ],
    );
    for (spec, run) in &runs {
        let alloc = &run.best.point.allocation;
        let m = alloc.len() as f64;
        let frac = |d: nnmodel::Delegate| {
            format!(
                "{:.2}",
                alloc.iter().filter(|&&a| a == d).count() as f64 / m
            )
        };
        t.row(vec![
            spec.name.clone(),
            frac(nnmodel::Delegate::Cpu),
            frac(nnmodel::Delegate::Gpu),
            frac(nnmodel::Delegate::Nnapi),
        ]);
    }
    println!("{}", t.render());

    // Fig. 4b — triangle count ratio (paper: 0.72 / 1 / 0.85 / 0.94).
    let mut t = Table::new(
        "Fig. 4b — triangle count ratio chosen by HBO",
        vec!["scenario".into(), "x measured".into(), "x paper".into()],
    );
    for ((spec, run), paper) in runs.iter().zip(["0.72", "1.00", "0.85", "0.94"]) {
        t.row(vec![
            spec.name.clone(),
            format!("{:.2}", run.best.point.x),
            paper.to_owned(),
        ]);
    }
    println!("{}", t.render());

    // Table III — per-task assignments.
    let mut t = Table::new(
        "Table III — AI allocation per task",
        vec![
            "task".into(),
            "SC1-CF1".into(),
            "SC2-CF1".into(),
            "SC1-CF2".into(),
            "SC2-CF2".into(),
        ],
    );
    let names = runs[0].0.task_names();
    for (i, name) in names.iter().enumerate() {
        let cell = |run_idx: usize| -> String {
            let (spec, run) = &runs[run_idx];
            let names = spec.task_names();
            match names.iter().position(|n| n == name) {
                Some(j) => run.best.point.allocation[j].to_string(),
                None => "-".to_owned(),
            }
        };
        let _ = i;
        t.row(vec![name.clone(), cell(0), cell(1), cell(2), cell(3)]);
    }
    println!("{}", t.render());

    // Fig. 4c — best-cost convergence across iterations.
    println!("== Fig. 4c — best cost through iterations ==");
    for (spec, run) in &runs {
        let mut s = Series::new(format!(
            "{} (best Q={:.3}, eps={:.3}, converged at iter {})",
            spec.name,
            run.best.quality,
            run.best.epsilon,
            run.iterations_to_converge()
        ));
        for (i, c) in run.best_cost_trace.iter().enumerate() {
            s.push((i + 1) as f64, *c);
        }
        print!("{}", s.render_summary());
    }
    println!();
    println!(
        "Paper checks: SC2-CF2 attains the lowest best cost (lightest contention);\n\
         SC1 scenarios reduce triangles while SC2 scenarios keep x near 1;\n\
         convergence lands within the 20-iteration budget (paper: 7 best / 13 avg)."
    );
    let costs: Vec<f64> = runs.iter().map(|(_, r)| r.best.cost).collect();
    let min_idx = costs
        .iter()
        .enumerate()
        .min_by(|a, b| a.1.total_cmp(b.1))
        .map(|(i, _)| i)
        .unwrap();
    println!(
        "Measured: lowest best cost = {} ({:.3}); avg iterations-to-converge = {:.1}",
        runs[min_idx].0.name,
        costs[min_idx],
        runs.iter()
            .map(|(_, r)| r.iterations_to_converge() as f64)
            .sum::<f64>()
            / runs.len() as f64
    );
    harness::emit_runner_report(&sweep.report);
}
