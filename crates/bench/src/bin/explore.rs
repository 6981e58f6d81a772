//! Interactive scenario explorer: run HBO on any scenario with custom
//! parameters from the command line.
//!
//! ```text
//! explore [SCENARIO] [--seed N] [--weight W] [--iterations K] [--initial M]
//!         [--device pixel7|s22] [--distance D] [--baselines] [--warm]
//!         [--replicates R] [--threads T] [--trace PATH]
//!
//! SCENARIO: SC1-CF1 (default) | SC2-CF1 | SC1-CF2 | SC2-CF2
//! ```
//!
//! With `--warm` the scenario is run twice through the fleet-wide
//! warm-start cache: once cold (empty cache, a miss) and once warm
//! (seeded by the first run's converged configuration), printing the
//! windows / suggest-call / convergence comparison — the source of the
//! cold-vs-warm table in EXPERIMENTS.md.
//!
//! With `--replicates R` (R > 1) the activation is repeated R times as a
//! sweep on the deterministic parallel runner: each replicate's PRNG
//! stream is derived from `(--seed, replicate index)`, so the sweep is
//! bit-identical for any `--threads` setting, and the merged best-cost /
//! convergence statistics are printed alongside the per-replicate bests.
//!
//! With `--trace PATH` the activation (or every replicate of the sweep)
//! records a deterministic span/counter trace and writes it to `PATH` as
//! Chrome trace-event JSON (loadable in Perfetto / `chrome://tracing`).
//! Tracing changes no published output: the printed iterations, bests,
//! and merged statistics are bit-identical with and without `--trace`,
//! and the trace file itself is byte-identical across reruns and
//! `--threads` settings. `--trace` is ignored under `--baselines`.
//!
//! Examples:
//!
//! ```text
//! cargo run --release -p hbo-bench --bin explore -- SC2-CF1 --seed 7
//! cargo run --release -p hbo-bench --bin explore -- SC1-CF1 --weight 5 --baselines
//! cargo run --release -p hbo-bench --bin explore -- SC2-CF2 --replicates 8 --threads 4
//! ```

use hbo_bench::args::SweepArgs;
use hbo_bench::harness;
use hbo_core::{Baseline, HboConfig, WarmCache};
use marsim::experiment::{compare_baselines, run_hbo, run_hbo_warm};
use marsim::runner::{self, SweepJob};
use marsim::ScenarioSpec;
use simcore::rng::mix;

struct Args {
    /// `--seed`, `--threads`, `--trace`, `--metrics`, `--trace-sample`.
    sweep: SweepArgs,
    scenario: String,
    weight: f64,
    iterations: usize,
    initial: usize,
    device: String,
    distance: Option<f64>,
    baselines: bool,
    warm: bool,
    replicates: usize,
}

fn parse_args() -> Result<Args, String> {
    let (shared, argv) = SweepArgs::split(&std::env::args().skip(1).collect::<Vec<_>>());
    let mut args = Args {
        sweep: SweepArgs::parse(&shared, runner::threads_env().as_deref(), &[])?,
        scenario: "SC1-CF1".to_owned(),
        weight: 2.5,
        iterations: 15,
        initial: 5,
        device: "pixel7".to_owned(),
        distance: None,
        baselines: false,
        warm: false,
        replicates: 1,
    };
    let mut i = 0;
    let value = |i: &mut usize| -> Result<String, String> {
        *i += 1;
        argv.get(*i)
            .cloned()
            .ok_or_else(|| format!("missing value for {}", argv[*i - 1]))
    };
    while i < argv.len() {
        match argv[i].as_str() {
            "--weight" => {
                args.weight = value(&mut i)?.parse().map_err(|e| format!("weight: {e}"))?
            }
            "--iterations" => {
                args.iterations = value(&mut i)?
                    .parse()
                    .map_err(|e| format!("iterations: {e}"))?
            }
            "--initial" => {
                args.initial = value(&mut i)?
                    .parse()
                    .map_err(|e| format!("initial: {e}"))?
            }
            "--device" => args.device = value(&mut i)?,
            "--distance" => {
                args.distance = Some(
                    value(&mut i)?
                        .parse()
                        .map_err(|e| format!("distance: {e}"))?,
                )
            }
            "--baselines" => args.baselines = true,
            "--warm" => args.warm = true,
            "--replicates" => {
                args.replicates = value(&mut i)?
                    .parse()
                    .map_err(|e| format!("replicates: {e}"))?;
                if args.replicates == 0 {
                    return Err("replicates must be >= 1".to_owned());
                }
            }
            "--help" | "-h" => return Err("help".to_owned()),
            other if !other.starts_with('-') => args.scenario = other.to_owned(),
            other => return Err(format!("unknown flag {other}")),
        }
        i += 1;
    }
    Ok(args)
}

fn usage() -> ! {
    eprintln!(
        "usage: explore [SC1-CF1|SC2-CF1|SC1-CF2|SC2-CF2] [--seed N] [--weight W]\n\
         \x20              [--iterations K] [--initial M] [--device pixel7|s22]\n\
         \x20              [--distance D] [--baselines] [--warm] [--replicates R]\n\
         \x20              [--threads T] [--trace PATH] [--metrics PATH]\n\
         \x20              [--trace-sample K]"
    );
    std::process::exit(2);
}

fn print_best(run: &marsim::experiment::HboRunResult) {
    println!(
        "best: x={:.2} alloc={} Q={:.3} eps={:.3} cost={:+.3} (converged at iter {})",
        run.best.point.x,
        run.best
            .point
            .allocation
            .iter()
            .map(|d| d.letter())
            .collect::<String>(),
        run.best.quality,
        run.best.epsilon,
        run.best.cost,
        run.iterations_to_converge()
    );
}

fn main() {
    let args = match parse_args() {
        Ok(a) => a,
        Err(msg) => {
            if msg != "help" {
                eprintln!("error: {msg}");
            }
            usage();
        }
    };

    let mut spec = match args.scenario.to_uppercase().as_str() {
        "SC1-CF1" => ScenarioSpec::sc1_cf1(),
        "SC2-CF1" => ScenarioSpec::sc2_cf1(),
        "SC1-CF2" => ScenarioSpec::sc1_cf2(),
        "SC2-CF2" => ScenarioSpec::sc2_cf2(),
        other => {
            eprintln!("error: unknown scenario {other}");
            usage();
        }
    };
    match args.device.as_str() {
        "pixel7" => {}
        "s22" => spec.device = soc::DeviceProfile::galaxy_s22(),
        other => {
            eprintln!("error: unknown device {other}");
            usage();
        }
    }
    if let Some(d) = args.distance {
        spec.user_distance = d;
    }
    let config = HboConfig {
        w: args.weight,
        n_initial: args.initial,
        iterations: args.iterations,
        ..HboConfig::default()
    };

    let seed = args.sweep.seed;
    println!(
        "scenario {} on {} (seed {}, w = {}, {}+{} iterations, distance {:.2} m)\n",
        spec.name,
        spec.device.name,
        seed,
        args.weight,
        args.initial,
        args.iterations,
        spec.user_distance
    );

    if args.baselines {
        let result = compare_baselines(&spec, &config, seed);
        for b in Baseline::ALL {
            let o = result.outcome(b);
            println!(
                "{:<5} x={:.2}  Q={:.3}  eps={:.3}  reward={:+.3}  alloc={}",
                b.label(),
                o.x,
                o.measurement.quality,
                o.measurement.epsilon,
                o.reward(config.w),
                o.allocation.iter().map(|d| d.letter()).collect::<String>()
            );
        }
    } else if args.warm {
        // Cold-vs-warm comparison through the fleet-wide cache: run 1
        // misses (empty cache) and stores its converged configuration;
        // run 2 (a derived seed, so a genuinely different activation)
        // hits and seeds its BO design from it.
        let mut cache = WarmCache::new();
        let cold = run_hbo_warm(&spec, &config, seed, &mut cache);
        let warm = run_hbo_warm(&spec, &config, mix(seed, 1), &mut cache);
        for (label, r) in [("cold", &cold), ("warm", &warm)] {
            println!(
                "{label}: hit={} windows={} bo_suggests={} converged_at={}",
                r.warm_hit,
                r.run.records.len(),
                r.run.telemetry.bo_suggests,
                r.run.iterations_to_converge()
            );
            print!("  ");
            print_best(&r.run);
        }
    } else if args.replicates > 1 {
        // Replicate sweep: seeds derived from (--seed, replicate index) on
        // the runner, so the merged statistics are bit-identical for any
        // --threads setting.
        let jobs: Vec<SweepJob> = (0..args.replicates)
            .map(|r| SweepJob::derived(format!("rep{}", r + 1), spec.clone(), config.clone()))
            .collect();
        let sweep = runner::run_sweep(
            "explore",
            jobs,
            seed,
            args.sweep.threads,
            &args.sweep.observe(),
        );
        for o in sweep.outcomes.iter().map(|o| &o.value) {
            print!("{} (seed {:>20}) ", o.label, o.seed);
            print_best(&o.run);
        }
        println!("\nmerged statistics over {} replicates:", args.replicates);
        for m in &sweep.report.metrics {
            println!(
                "  {:<18} mean={:+.3}  std={:.3}  min={:+.3}  max={:+.3}  (n={})",
                m.name,
                m.stats.mean(),
                m.stats.std_dev(),
                m.stats.min().unwrap_or(f64::NAN),
                m.stats.max().unwrap_or(f64::NAN),
                m.stats.count()
            );
        }
        harness::emit_runner_report(&sweep.report);
        let mut exports = args.sweep.clone();
        if sweep.outcomes.iter().all(|o| o.trace.is_none()) {
            // --trace-sample 0 keeps detail for no replicate at all.
            if let Some(path) = exports.trace.take() {
                eprintln!("trace {path} skipped: no replicate sampled");
            }
        }
        exports.write_exports(&sweep.outcomes, |_, o| o.label.clone());
    } else {
        // One activation: traced whenever --trace is given
        // (--trace-sample does not apply).
        let observed = args
            .sweep
            .observe()
            .run(args.sweep.trace.is_some(), || run_hbo(&spec, &config, seed));
        args.sweep
            .write_exports(std::slice::from_ref(&observed), |_, _| spec.name.clone());
        let run = observed.value;
        for (i, r) in run.records.iter().enumerate() {
            println!(
                "iter {:>2}: x={:.2} alloc={} Q={:.3} eps={:.3} cost={:+.3}",
                i + 1,
                r.point.x,
                r.point
                    .allocation
                    .iter()
                    .map(|d| d.letter())
                    .collect::<String>(),
                r.quality,
                r.epsilon,
                r.cost
            );
        }
        println!();
        print_best(&run);
    }
}
