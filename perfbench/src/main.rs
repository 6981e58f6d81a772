//! Benchmark of the HBO reproduction: runs one workload for `--seconds`,
//! checks every unit's outputs, and prints one JSON result line (the
//! contract is `BENCHMARK.json`; `CONTRACT.md` says what each metric is
//! meant to move).
//!
//! ```text
//! cargo run --release --manifest-path perfbench/Cargo.toml -- \
//!     --workload <name> --seed <n> --seconds <s> --trace <0|1> [--units <n>]
//! cargo run --release --manifest-path perfbench/Cargo.toml -- \
//!     --workload <name> --print-digests      # golden.txt lines, default seed
//! ```
//!
//! `--trace 0` times the program's public entry points and reports the
//! end-to-end metrics. `--trace 1` interleaves each untraced unit with a
//! traced replay of the same unit (one span per call into a layer),
//! checks that the replay reproduces the entry point's outputs and that
//! the workload still loads its layer, writes the spans to
//! `perfbench/out/spans-<workload>.csv`, and reports the per-layer
//! metrics. `--units` runs that many units instead (after the reference
//! pass when untraced): the self-test's small mode.

mod spans;
mod stats;
mod workloads;

use std::path::Path;
use std::process::ExitCode;
use std::time::{Duration, Instant};

use spans::Recorder;
use stats::{digest, peak_rss_mb, quantile};
use workloads::{Bench, Tally, UnitOut, Workload};

/// The seed whose per-input output digests are pinned in `golden.txt`.
const DEFAULT_SEED: u64 = 1;
const GOLDEN: &str = include_str!("../golden.txt");
/// Untraced runs time every input of the pool at least this many times.
const MIN_PASSES: usize = 2;
/// Back-to-back set-ups of an input before each of its timed units.
const SETUP_REPS: usize = 3;

struct Args {
    workload: Workload,
    seed: u64,
    seconds: u64,
    trace: bool,
    units: Option<usize>,
    print_digests: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut args = Args {
        workload: Workload::HboActivation,
        seed: DEFAULT_SEED,
        seconds: 10,
        trace: false,
        units: None,
        print_digests: false,
    };
    let mut workload = None;
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        if flag == "--print-digests" {
            args.print_digests = true;
            continue;
        }
        let value = it.next().ok_or(format!("{flag} needs a value"))?;
        let number = || {
            value
                .parse::<u64>()
                .map_err(|_| format!("bad {flag} {value:?}"))
        };
        match flag.as_str() {
            "--workload" => {
                workload =
                    Some(Workload::parse(&value).ok_or(format!("unknown workload {value:?}"))?)
            }
            "--seed" => args.seed = number()?,
            "--seconds" => args.seconds = number()?.max(1),
            "--trace" => {
                args.trace = match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(format!("bad --trace {value:?}")),
                }
            }
            "--units" => args.units = Some(number()?.max(1) as usize),
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    args.workload = workload.ok_or("--workload is required")?;
    if args.print_digests {
        args.seed = DEFAULT_SEED;
    }
    Ok(args)
}

struct Metric {
    name: &'static str,
    value: f64,
    unit: &'static str,
}

fn metric(name: &'static str, value: f64, unit: &'static str) -> Metric {
    Metric { name, value, unit }
}

/// Reference outputs of one pass over the pool, made before any other
/// unit runs.
struct References {
    digests: Vec<String>,
    facts: Vec<String>,
    /// Host time of each input's reference run.
    secs: Vec<f64>,
    sim_secs: Vec<f64>,
    /// Inputs whose first run failed a check or the pinned digest.
    bad: Vec<bool>,
}

impl References {
    fn build(bench: &Bench, seed: u64) -> References {
        let pinned: Vec<&str> = GOLDEN
            .lines()
            .filter_map(|l| {
                let mut f = l.split_whitespace();
                (f.next() == Some(bench.workload.name())).then(|| f.nth(1).unwrap_or(""))
            })
            .collect();
        let mut refs = References {
            digests: Vec::new(),
            facts: Vec::new(),
            secs: Vec::new(),
            sim_secs: Vec::new(),
            bad: Vec::new(),
        };
        for j in 0..bench.pool_len() {
            let start = Instant::now();
            let out = bench.run_entry(j);
            refs.secs.push(start.elapsed().as_secs_f64());
            refs.sim_secs.push(out.sim_secs);
            let d = digest(&out.text);
            let mut bad = !out.problems.is_empty();
            for p in &out.problems {
                eprintln!("input {j}: {p}");
            }
            if seed == DEFAULT_SEED && pinned.get(j) != Some(&d.as_str()) {
                eprintln!(
                    "input {j}: digest {d} differs from the pinned {:?}",
                    pinned.get(j)
                );
                bad = true;
            }
            refs.digests.push(d);
            refs.facts.push(out.facts);
            refs.bad.push(bad);
        }
        refs
    }

    /// True when a repetition of input `j` passed its checks and
    /// reproduced the reference outputs.
    fn passes(&self, j: usize, out: &UnitOut) -> bool {
        for p in &out.problems {
            eprintln!("input {j}: {p}");
        }
        let same = digest(&out.text) == self.digests[j];
        if !same {
            eprintln!("input {j}: outputs differ from its first run");
        }
        out.problems.is_empty() && same && !self.bad[j]
    }
}

struct Outcome {
    correct: bool,
    attempted: usize,
    failed: usize,
    metrics: Vec<Metric>,
}

/// Whether the traced run starts another unit: `--units` caps a
/// small-mode run; otherwise it runs until the deadline.
fn keep_going(args: &Args, done: usize, deadline: Instant) -> bool {
    match args.units {
        Some(n) => done < n,
        None => done == 0 || Instant::now() < deadline,
    }
}

/// End-to-end metrics from the program's public entry points.
///
/// The run makes a fixed number of whole passes over the pool, set by
/// `--seconds` and the workload's nominal pass time (see
/// [`Workload::pass_secs`]) and never by how fast the host happens to be,
/// so every input is repeated equally often on every run. The reference
/// pass counts as the first. Each input's host time is the best of its
/// repetitions: the work of an input is fixed, and contention from other
/// tenants of the host only ever adds to it, so the minimum is the
/// steadiest estimate of what the program costs. The quantiles are taken
/// over the pool's inputs. Set-up time is estimated the same way: before
/// each unit after the reference pass, its input's simulators are built
/// [`SETUP_REPS`] more times, untimed by the unit, and `setup_s` sums each
/// input's best set-up time over the pool. `--units` instead runs that
/// many units after the reference pass.
fn untraced(bench: &Bench, args: &Args, refs: &References) -> Outcome {
    let pool = bench.pool_len();
    let passes = (args.seconds as f64 / bench.workload.pass_secs()).round() as usize;
    let units = args.units.unwrap_or(passes.max(MIN_PASSES) * pool - pool);
    let mut best = refs.secs.clone();
    let mut best_setup = vec![f64::INFINITY; pool];
    let mut failed = 0;
    for i in 0..units {
        let j = i % pool;
        for _ in 0..SETUP_REPS {
            best_setup[j] = best_setup[j].min(bench.setup_secs(j));
        }
        let start = Instant::now();
        let out = bench.run_entry(j);
        best[j] = best[j].min(start.elapsed().as_secs_f64());
        failed += usize::from(!refs.passes(j, &out));
    }
    failed += refs.bad.iter().filter(|&&b| b).count();
    let attempted = units + pool;
    let wall: f64 = best.iter().sum();
    let sim: f64 = refs.sim_secs.iter().sum();
    let ms: Vec<f64> = best.iter().map(|s| s * 1e3).collect();
    let setup: f64 = best_setup.iter().filter(|s| s.is_finite()).sum();
    eprintln!(
        "{}: {attempted} units, {failed} failed",
        bench.workload.name()
    );
    Outcome {
        correct: failed == 0,
        attempted,
        failed,
        metrics: vec![
            metric("sim_s_per_wall_s", sim / wall, "s/s"),
            metric("unit_ms_p50", quantile(ms.clone(), 0.5), "ms"),
            metric("unit_ms_p90", quantile(ms, 0.9), "ms"),
            metric("setup_s", setup, "s"),
            metric("peak_rss_mb", peak_rss_mb(), "MiB"),
            metric(
                "pass_rate",
                (attempted - failed) as f64 / attempted as f64,
                "ratio",
            ),
        ],
    }
}

/// Per-layer metrics from a traced replay of every unit, interleaved with
/// the untraced entry point it must reproduce.
fn traced(bench: &Bench, args: &Args, refs: &References) -> Outcome {
    let pool = bench.pool_len();
    let fleet = bench.workload == Workload::FleetPrivate;
    let mut rec = Recorder::new();
    let mut tally = Tally::default();
    let (mut entry_s, mut traced_s, mut observed_s) = (0.0, 0.0, 0.0);
    let (mut units, mut failed, mut diverged) = (0, 0, 0);
    let deadline = Instant::now() + Duration::from_secs(args.seconds);
    while keep_going(args, units, deadline) {
        let j = units % pool;
        let mut entry = || {
            let start = Instant::now();
            let out = bench.run_entry(j);
            entry_s += start.elapsed().as_secs_f64();
            out
        };
        let mut replay = || {
            let start = Instant::now();
            let out = bench.run_traced(units as u64, &mut rec, &mut tally);
            traced_s += start.elapsed().as_secs_f64();
            out
        };
        // Alternate the order so neither side always runs on a warm cache.
        let (a, b) = if units % 2 == 0 {
            let a = entry();
            (a, replay())
        } else {
            let b = replay();
            (entry(), b)
        };
        let mut same = a.facts == b.facts && a.facts == refs.facts[j];
        if fleet {
            let start = Instant::now();
            let row = bench.run_observed(j);
            observed_s += start.elapsed().as_secs_f64();
            same &= row == a.text;
        }
        if !same {
            eprintln!("input {j}: traced replay diverged from the entry point");
            diverged += 1;
        }
        failed += usize::from(!refs.passes(j, &a) || !same);
        units += 1;
    }

    let s = rec.summary();
    let unit_ns = s.total_ns("unit");
    let share = |names: &[&str]| names.iter().map(|n| s.self_ns(n)).sum::<f64>() / unit_ns;
    let per = |num: f64, den: f64| if den > 0.0 { num / den } else { 0.0 };
    let n = units as f64;
    let soc_ns = s.total_ns("soc.run_for_secs") + s.total_ns("soc.measure_for_secs");
    let edge_ns = s.total_ns("edgelink.sim.measure_for_secs");
    let step_ns = s.total_ns("edgelink.cluster.step");
    let steps: Vec<f64> = {
        let p = |q| s.quantile_us("edgelink.cluster.step", q) / 1e3;
        vec![p(0.5), p(0.9)]
    };
    let metrics = vec![
        metric(
            "hbo_core.next_point_us_p50",
            s.quantile_us("hbo_core.next_point", 0.5),
            "us",
        ),
        metric(
            "hbo_core.next_point_us_p90",
            s.quantile_us("hbo_core.next_point", 0.9),
            "us",
        ),
        metric(
            "hbo_core.observe_us_p50",
            s.quantile_us("hbo_core.observe", 0.5),
            "us",
        ),
        metric(
            "hbo_core.share",
            share(&["hbo_core.next_point", "hbo_core.observe"]),
            "ratio",
        ),
        metric(
            "hbo_core.next_points_per_unit",
            s.count("hbo_core.next_point") as f64 / n,
            "count",
        ),
        metric(
            "hbo_core.warm_hit_ratio",
            tally.warm_hits as f64 / n,
            "ratio",
        ),
        metric(
            "marsim.app.apply_us_p50",
            s.quantile_us("marsim.app.apply", 0.5),
            "us",
        ),
        metric(
            "soc.wall_us_per_sim_s",
            per(soc_ns / 1e3, tally.app_sim_secs),
            "us/s",
        ),
        metric(
            "soc.completions_per_sim_s",
            per(tally.soc_completions as f64, tally.app_sim_secs),
            "1/s",
        ),
        metric(
            "soc.wall_ns_per_completion",
            per(soc_ns, tally.soc_completions as f64),
            "ns",
        ),
        metric(
            "soc.share",
            share(&["soc.run_for_secs", "soc.measure_for_secs"]),
            "ratio",
        ),
        metric(
            "edgelink.sim.wall_us_per_sim_s",
            per(edge_ns / 1e3, tally.edge_sim_secs),
            "us/s",
        ),
        metric(
            "edgelink.sim.requests_per_sim_s",
            per(tally.edge_requests as f64, tally.edge_sim_secs),
            "1/s",
        ),
        metric(
            "edgelink.sim.medium_reallocs_per_sim_s",
            per(tally.edge_medium_reallocs as f64, tally.edge_sim_secs),
            "1/s",
        ),
        metric(
            "edgelink.sim.share",
            share(&["edgelink.sim.measure_for_secs"]),
            "ratio",
        ),
        metric("edgelink.cluster.step_ms_p50", steps[0], "ms"),
        metric("edgelink.cluster.step_ms_p90", steps[1], "ms"),
        metric(
            "edgelink.cluster.submitted_per_sim_s",
            per(tally.submitted as f64, tally.cell_sim_secs),
            "1/s",
        ),
        metric(
            "edgelink.cluster.completed_per_sim_s",
            per(tally.completed as f64, tally.cell_sim_secs),
            "1/s",
        ),
        metric(
            "edgelink.cluster.rejects_per_sim_s",
            per(tally.rejects as f64, tally.cell_sim_secs),
            "1/s",
        ),
        metric(
            "edgelink.cluster.wall_ns_per_request",
            per(step_ns, tally.submitted as f64),
            "ns",
        ),
        metric(
            "edgelink.cluster.peak_queue",
            tally.peak_queue as f64,
            "count",
        ),
        metric(
            "edgelink.cluster.share",
            share(&["edgelink.cluster.step"]),
            "ratio",
        ),
        metric(
            "edgelink.medium.reallocs_per_sim_s",
            per(tally.medium_reallocs as f64, tally.cell_sim_secs),
            "1/s",
        ),
        metric(
            "edgelink.medium.handovers_per_sim_s",
            per(tally.handovers as f64, tally.cell_sim_secs),
            "1/s",
        ),
        metric(
            "edgelink.medium.wall_ns_per_realloc",
            per(step_ns, tally.medium_reallocs as f64),
            "ns",
        ),
        metric(
            "edgelink.medium.footprint_bytes",
            tally.footprint_bytes as f64,
            "B",
        ),
        metric(
            "marsim.fleet.sessions_us",
            s.quantile_us("marsim.fleet.sessions", 0.5),
            "us",
        ),
        metric(
            "edgelink.cluster.new_us",
            s.quantile_us("edgelink.cluster.new", 0.5),
            "us",
        ),
        metric(
            "marsim.app.new_us",
            s.quantile_us("marsim.app.new", 0.5),
            "us",
        ),
        metric(
            "marsim.edge.world_new_us",
            s.quantile_us("marsim.edge.world_new", 0.5),
            "us",
        ),
        metric(
            "simcore.metrics.overhead_ratio",
            per(observed_s, entry_s),
            "ratio",
        ),
        metric(
            "bench.trace_overhead_ratio",
            per(traced_s, entry_s),
            "ratio",
        ),
    ];

    let value = |name: &str| {
        metrics
            .iter()
            .find(|m| m.name == name)
            .map_or(0.0, |m| m.value)
    };
    let load_ok = match bench.workload {
        Workload::HboActivation => value("hbo_core.share") >= 0.5,
        Workload::EdgeStadium => value("edgelink.sim.share") >= 0.5,
        Workload::FleetPrivate => {
            value("edgelink.cluster.share") >= 0.9
                && value("edgelink.medium.reallocs_per_sim_s") == 0.0
        }
        Workload::MobilityShared => {
            value("edgelink.cluster.share") >= 0.9
                && value("edgelink.medium.reallocs_per_sim_s") > 0.0
        }
    };
    if !load_ok {
        eprintln!(
            "{}: the workload no longer loads the layer it was chosen for",
            bench.workload.name()
        );
    }
    let path = Path::new(env!("CARGO_MANIFEST_DIR"))
        .join("out")
        .join(format!("spans-{}.csv", bench.workload.name()));
    if let Err(e) = rec.write_csv(&path) {
        eprintln!("cannot write {}: {e}", path.display());
    }
    eprintln!(
        "{}: {units} traced units, {failed} failed, {diverged} diverged; spans in {}",
        bench.workload.name(),
        path.display()
    );
    Outcome {
        correct: failed == 0 && load_ok,
        attempted: units,
        failed,
        metrics,
    }
}

fn render(o: &Outcome) -> String {
    let metrics: Vec<String> = o
        .metrics
        .iter()
        .map(|m| {
            format!(
                "\"{}\": {{\"value\": {:?}, \"unit\": \"{}\"}}",
                m.name, m.value, m.unit
            )
        })
        .collect();
    format!(
        "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
        o.correct,
        o.attempted,
        o.failed,
        metrics.join(", ")
    )
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(args) => args,
        Err(e) => {
            eprintln!("perfbench: {e}");
            eprintln!(
                "usage: --workload <hbo_activation|edge_stadium|fleet_private|mobility_shared> \
                 [--seed N] [--seconds S] [--trace 0|1] [--units N] [--print-digests]"
            );
            return ExitCode::from(2);
        }
    };
    let bench = Bench::new(args.workload, args.seed);
    if args.print_digests {
        for j in 0..bench.pool_len() {
            let out = bench.run_entry(j);
            println!("{} {j} {}", args.workload.name(), digest(&out.text));
        }
        return ExitCode::SUCCESS;
    }
    let refs = References::build(&bench, args.seed);
    let mut outcome = if args.trace {
        traced(&bench, &args, &refs)
    } else {
        untraced(&bench, &args, &refs)
    };
    if outcome.metrics.iter().any(|m| !m.value.is_finite()) {
        eprintln!("a metric is not finite");
        outcome.correct = false;
        for m in &mut outcome.metrics {
            if !m.value.is_finite() {
                m.value = 0.0;
            }
        }
    }
    println!("{}", render(&outcome));
    ExitCode::SUCCESS
}
