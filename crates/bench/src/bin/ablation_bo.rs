//! Ablation of HBO's Bayesian-optimization design choices (Section IV-C).
//!
//! The paper states two tuning decisions without showing the data:
//!
//! * **Acquisition function** — "Expected Improvement is a well-suited
//!   acquisition function for our problem compared to … probability of
//!   improvement, which is too conservative during exploration, and lower
//!   confidence bound, which requires tuning a dedicated
//!   exploration/exploitation parameter."
//! * **Kernel smoothness** — "Based on extensive testing we use ν = 5/2."
//!
//! This experiment regenerates that comparison on SC1-CF1: each variant
//! runs the full HBO activation across several seeds and is scored by the
//! mean final best cost (lower is better) and the mean iterations to
//! convergence. All variant × seed activations run as one flat job list
//! on the deterministic parallel runner (`--threads N` / `HBO_THREADS`).

use bayesopt::{Acquisition, BoConfig, Kernel};
use hbo_bench::{harness, Table};
use hbo_core::HboConfig;
use marsim::runner::{self, ObserveConfig, SweepJob, SweepResult};
use marsim::ScenarioSpec;

const SEEDS: [u64; 5] = [11, 23, 47, 2024, 9001];

fn variant_jobs(label: &str, config: &HboConfig) -> Vec<SweepJob> {
    let spec = ScenarioSpec::sc1_cf1();
    SEEDS
        .iter()
        .map(|&seed| SweepJob::seeded(label, spec.clone(), config.clone(), seed))
        .collect()
}

fn summarize(label: &str, sweep: &SweepResult, table: &mut Table) {
    let outcomes = sweep.labeled(label);
    assert_eq!(outcomes.len(), SEEDS.len(), "missing runs for {label}");
    let costs: Vec<f64> = outcomes.iter().map(|o| o.run.best.cost).collect();
    let mean = costs.iter().sum::<f64>() / costs.len() as f64;
    let worst = costs.iter().cloned().fold(f64::MIN, f64::max);
    let mean_iters = outcomes
        .iter()
        .map(|o| o.run.iterations_to_converge() as f64)
        .sum::<f64>()
        / outcomes.len() as f64;
    table.row(vec![
        label.to_owned(),
        format!("{mean:+.3}"),
        format!("{worst:+.3}"),
        format!("{mean_iters:.1}"),
    ]);
}

fn with_acquisition(acquisition: Acquisition) -> HboConfig {
    HboConfig {
        bo: BoConfig {
            acquisition,
            ..BoConfig::default()
        },
        ..HboConfig::default()
    }
}

fn with_kernel(kernel: Kernel) -> HboConfig {
    HboConfig {
        bo: BoConfig {
            kernel,
            ..BoConfig::default()
        },
        ..HboConfig::default()
    }
}

fn main() {
    let threads = runner::threads_or_exit();

    let acquisition_variants: Vec<(&str, HboConfig)> = vec![
        (
            "EI (xi=0.01, paper)",
            with_acquisition(Acquisition::ExpectedImprovement { xi: 0.01 }),
        ),
        (
            "PI (xi=0.01)",
            with_acquisition(Acquisition::ProbabilityOfImprovement { xi: 0.01 }),
        ),
        (
            "LCB (kappa=0.5)",
            with_acquisition(Acquisition::LowerConfidenceBound { kappa: 0.5 }),
        ),
        (
            "LCB (kappa=2.0)",
            with_acquisition(Acquisition::LowerConfidenceBound { kappa: 2.0 }),
        ),
        (
            "LCB (kappa=8.0)",
            with_acquisition(Acquisition::LowerConfidenceBound { kappa: 8.0 }),
        ),
    ];
    let kernel_variants: Vec<(&str, HboConfig)> = vec![
        (
            "Matern 1/2",
            with_kernel(Kernel::Matern12 {
                length_scale: 1.0,
                signal_var: 1.0,
            }),
        ),
        (
            "Matern 3/2",
            with_kernel(Kernel::Matern32 {
                length_scale: 1.0,
                signal_var: 1.0,
            }),
        ),
        (
            "Matern 5/2 (paper)",
            with_kernel(Kernel::Matern52 {
                length_scale: 1.0,
                signal_var: 1.0,
            }),
        ),
        (
            "RBF",
            with_kernel(Kernel::Rbf {
                length_scale: 1.0,
                signal_var: 1.0,
            }),
        ),
    ];

    // One flat variant × seed job list for the whole ablation.
    let mut jobs = Vec::new();
    for (label, config) in acquisition_variants.iter().chain(&kernel_variants) {
        jobs.extend(variant_jobs(label, config));
    }
    let sweep = runner::run_sweep(
        "ablation_bo",
        jobs,
        SEEDS[0],
        threads,
        &ObserveConfig::default(),
    );

    let mut t = Table::new(
        "Ablation — acquisition function (SC1-CF1, 5 seeds, lower cost is better)",
        vec![
            "acquisition".into(),
            "mean best cost".into(),
            "worst best cost".into(),
            "mean iters-to-converge".into(),
        ],
    );
    for (label, _) in &acquisition_variants {
        summarize(label, &sweep, &mut t);
    }
    println!("{}", t.render());
    println!(
        "Paper claim: EI wins; PI is too conservative during exploration; LCB's\n\
         result depends on hand-tuning kappa (note the spread across kappas).\n"
    );

    let mut t = Table::new(
        "Ablation — kernel smoothness (SC1-CF1, 5 seeds)",
        vec![
            "kernel".into(),
            "mean best cost".into(),
            "worst best cost".into(),
            "mean iters-to-converge".into(),
        ],
    );
    for (label, _) in &kernel_variants {
        summarize(label, &sweep, &mut t);
    }
    println!("{}", t.render());
    println!("Paper claim: \"based on extensive testing we use v = 5/2\".");
    harness::emit_runner_report(&sweep.report);
}
