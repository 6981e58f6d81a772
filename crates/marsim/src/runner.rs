//! Deterministic parallel experiment execution.
//!
//! Every evaluation binary sweeps some cross product of scenario ×
//! configuration × replicate. This module turns such sweeps into a flat
//! job list executed on [`simcore::pool`] worker threads, with three
//! guarantees:
//!
//! 1. **Seed isolation** — each job's RNG stream is derived from
//!    `(master_seed, job_index)` through the splitmix64-based
//!    [`simcore::rng::mix`], so no job's draws depend on which worker ran
//!    it or on how many jobs surround it.
//! 2. **Order-independent merging** — per-job statistics are
//!    [`Running`] accumulators combined with the parallel-Welford
//!    [`Running::merge`] in job-index order after all workers finish, so
//!    the merged numbers do not depend on completion order.
//! 3. **Serial ≡ parallel** — (1) + (2) plus the order-preserving
//!    [`simcore::pool::map`] make a `--threads N` run bit-identical to
//!    `--threads 1` for any `N`.
//!
//! The thread count comes from `--threads N` on the command line, the
//! `HBO_THREADS` environment variable, or the machine's available
//! parallelism, in that order ([`threads`]). A zero or non-integer value
//! is an error that names the flag or the variable, never a silent
//! fallback.
//!
//! Observation is one value, [`ObserveConfig`]: [`run_observed`] runs any
//! job list under it (head-sampling, per-job sinks with their tracer in
//! scope), and [`merged_trace_json`] / [`merged_metrics`] merge what the
//! jobs collected in job order. [`run_sweep`] is that runner applied to
//! HBO activations.
//!
//! Each binary reports its sweep as one JSON line (a [`RunnerReport`],
//! emitted through `hbo_bench::harness`) so wall time and merged metrics
//! are machine-diffable across PRs.

use std::fmt::Display;
use std::num::NonZeroUsize;
use std::str::FromStr;
use std::time::Instant;

use hbo_core::HboConfig;
use simcore::metrics::{head_sample, with_observers, MetricsBuffer};
use simcore::pool;
use simcore::stats::Running;
use simcore::trace::{chrome_trace_json, TraceBuffer, TraceJob};

use crate::experiment::{run_hbo, HboRunResult};
use crate::scenario::ScenarioSpec;
use crate::telemetry::TelemetrySummary;

/// The environment variable that sets the worker-thread count when
/// `--threads` is absent.
pub const THREADS_ENV: &str = "HBO_THREADS";

/// Derives the independent seed for job `job_index` of a sweep rooted at
/// `master_seed` (splitmix64 mixing via [`simcore::rng::mix`]).
pub fn job_seed(master_seed: u64, job_index: u64) -> u64 {
    simcore::rng::mix(master_seed, job_index)
}

/// The value after `flag` in `argv`, parsed as `T`.
///
/// Returns `Ok(None)` when `flag` is absent, and an error naming the flag
/// and the value when the value is missing or does not parse.
pub fn flag_value<T>(argv: &[String], flag: &str) -> Result<Option<T>, String>
where
    T: FromStr,
    T::Err: Display,
{
    let Some(i) = argv.iter().position(|a| a == flag) else {
        return Ok(None);
    };
    let value = argv
        .get(i + 1)
        .ok_or_else(|| format!("{flag}: missing value"))?;
    value
        .parse()
        .map(Some)
        .map_err(|e| format!("{flag}: invalid value {value:?} ({e})"))
}

/// The worker-thread count: `--threads N` in `argv`, else `env` (the
/// value of [`THREADS_ENV`], if set), else the machine's available
/// parallelism. Zero, a non-integer or a missing value is an error
/// naming the flag or the variable and the value. A pure function of
/// its inputs, so tests never touch the process environment.
pub fn threads(argv: &[String], env: Option<&str>) -> Result<usize, String> {
    if let Some(n) = flag_value::<NonZeroUsize>(argv, "--threads")? {
        return Ok(n.get());
    }
    match env {
        None => Ok(pool::available_threads()),
        Some(value) => value
            .trim()
            .parse::<NonZeroUsize>()
            .map(NonZeroUsize::get)
            .map_err(|e| format!("{THREADS_ENV}: invalid value {value:?} ({e})")),
    }
}

/// The process's [`THREADS_ENV`] value, if the variable is set.
pub fn threads_env() -> Option<String> {
    std::env::var_os(THREADS_ENV).map(|v| v.to_string_lossy().into_owned())
}

/// [`threads`] from the process's own arguments and environment, for a
/// binary's `main`: on an error, prints it and exits with status 2.
pub fn threads_or_exit() -> usize {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    threads(&argv, threads_env().as_deref()).unwrap_or_else(|e| {
        eprintln!("error: {e}");
        std::process::exit(2)
    })
}

/// One job of an HBO activation sweep.
#[derive(Debug, Clone)]
pub struct SweepJob {
    /// Display label (scenario, variant, replicate…).
    pub label: String,
    /// The scenario to run.
    pub scenario: ScenarioSpec,
    /// The controller configuration.
    pub config: HboConfig,
    /// Explicit seed, or `None` to derive one from
    /// `(master_seed, job_index)` via [`job_seed`].
    pub seed: Option<u64>,
}

impl SweepJob {
    /// A job whose seed derives from its position in the job list.
    pub fn derived(label: impl Into<String>, scenario: ScenarioSpec, config: HboConfig) -> Self {
        SweepJob {
            label: label.into(),
            scenario,
            config,
            seed: None,
        }
    }

    /// A job pinned to an explicit seed (paper-reproduction binaries pin
    /// their historic figure seeds).
    pub fn seeded(
        label: impl Into<String>,
        scenario: ScenarioSpec,
        config: HboConfig,
        seed: u64,
    ) -> Self {
        SweepJob {
            label: label.into(),
            scenario,
            config,
            seed: Some(seed),
        }
    }
}

/// The outcome of one [`SweepJob`].
#[derive(Debug, Clone)]
pub struct SweepOutcome {
    /// Index into the job list (stable across thread counts).
    pub job_index: usize,
    /// The job's label.
    pub label: String,
    /// The seed the job actually ran with.
    pub seed: u64,
    /// The full activation result.
    pub run: HboRunResult,
}

/// What a run observes: Chrome tracing, deterministic head-sampling of
/// that tracing, and streaming metric aggregation. The default observes
/// nothing.
#[derive(Debug, Clone, Default)]
pub struct ObserveConfig {
    /// Attach a per-job Chrome trace sink (subject to `trace_sample`).
    pub traced: bool,
    /// When `Some(k)` and `traced`, only the `k` jobs whose mixed
    /// `(master_seed, job_seed)` hashes are smallest keep full Chrome
    /// detail ([`simcore::metrics::head_sample`]); every job still feeds
    /// the aggregator. `None` traces every job.
    pub trace_sample: Option<usize>,
    /// Attach a per-job [`simcore::metrics::AggregatingSink`] and return
    /// its [`MetricsBuffer`] for job-index-order merging.
    pub metrics: bool,
}

impl ObserveConfig {
    /// Which jobs keep full Chrome detail, given each job's seed: every
    /// job when tracing without `trace_sample`, the `k` jobs
    /// [`head_sample`] picks with it, and none without tracing. A pure
    /// function of `(master_seed, seeds)`, so the same jobs are sampled
    /// on every rerun and for every thread count.
    pub fn sampled(&self, master_seed: u64, seeds: &[u64]) -> Vec<bool> {
        match (self.traced, self.trace_sample) {
            (true, Some(k)) => head_sample(master_seed, seeds, k),
            (traced, _) => vec![traced; seeds.len()],
        }
    }

    /// Runs one job: `f` runs under this job's sinks (a Chrome buffer
    /// when `sampled`, the aggregator when `metrics` is on) with their
    /// tracer in scope, and its value comes back with what they
    /// collected. Observation never perturbs the simulations.
    pub fn run<R>(&self, sampled: bool, f: impl FnOnce() -> R) -> Observed<R> {
        let (value, trace, metrics) = with_observers(sampled, self.metrics, |_| f());
        Observed {
            value,
            trace,
            metrics,
        }
    }
}

/// One job's value and what its observers collected.
#[derive(Debug, Clone)]
pub struct Observed<R> {
    /// What the job returned.
    pub value: R,
    /// The job's Chrome trace buffer, when it was traced and sampled.
    pub trace: Option<TraceBuffer>,
    /// The job's aggregated metrics, when metrics were on.
    pub metrics: Option<MetricsBuffer>,
}

/// Runs a job list on `threads` workers, job `i` under the observers
/// that `observe` and `sampled[i]` select ([`ObserveConfig::run`]).
///
/// Sinks are per job, on the worker that runs it, so nothing is shared
/// across threads. With `f` a pure function of `(index, item)`, every
/// value and every buffer, and so the merged trace and exposition, is
/// bit-identical for every thread count and to an unobserved run.
pub fn run_observed<T, R, F>(
    label: impl Into<String>,
    threads: usize,
    items: &[T],
    observe: &ObserveConfig,
    sampled: &[bool],
    f: F,
) -> (Vec<Observed<R>>, RunnerReport)
where
    T: Sync,
    R: Send,
    F: Fn(usize, &T) -> R + Sync,
{
    run_map(label, threads, items, |i, item| {
        observe.run(sampled[i], || f(i, item))
    })
}

/// Merges the jobs' Chrome buffers in job order into one trace-event
/// JSON document: one Chrome `pid` per traced job, named by `name(index,
/// value)`. Jobs without a buffer are skipped.
pub fn merged_trace_json<R>(jobs: &[Observed<R>], name: impl Fn(usize, &R) -> String) -> String {
    let traces: Vec<TraceJob> = jobs
        .iter()
        .enumerate()
        .filter_map(|(i, job)| {
            job.trace.as_ref().map(|buffer| TraceJob {
                name: name(i, &job.value),
                buffer: buffer.clone(),
            })
        })
        .collect();
    chrome_trace_json(&traces)
}

/// Merges the jobs' metric buffers in job order. `None` when no job was
/// metered.
pub fn merged_metrics<R>(jobs: &[Observed<R>]) -> Option<MetricsBuffer> {
    let mut metered = jobs.iter().filter_map(|job| job.metrics.as_ref());
    let mut merged = metered.next()?.clone();
    for m in metered {
        merged.merge(m);
    }
    Some(merged)
}

/// A merged metric: a name plus its [`Running`] accumulator.
#[derive(Debug, Clone, PartialEq)]
pub struct MetricSummary {
    /// Metric name, e.g. `"best_cost"`.
    pub name: String,
    /// Merged statistics across jobs.
    pub stats: Running,
}

/// The machine-readable summary of one runner-backed sweep.
#[derive(Debug, Clone, PartialEq)]
pub struct RunnerReport {
    /// Sweep label (usually the binary name).
    pub label: String,
    /// Wall-clock time of the whole sweep, in seconds.
    pub wall_secs: f64,
    /// Number of jobs executed.
    pub jobs: usize,
    /// Worker threads used.
    pub threads: usize,
    /// Merged per-metric statistics, in a fixed order.
    pub metrics: Vec<MetricSummary>,
    /// Merged telemetry totals across jobs (job-index merge order), when
    /// the sweep collects them.
    pub telemetry: Option<TelemetrySummary>,
}

impl RunnerReport {
    /// Renders the report as one JSON line in the same hand-rolled style
    /// as `hbo_bench::harness` (no serialization crate; hermetic build).
    pub fn to_json(&self) -> String {
        let mut out = format!(
            "{{\"runner\":\"{}\",\"jobs\":{},\"threads\":{},\"wall_secs\":{:.6},\"metrics\":{{",
            self.label, self.jobs, self.threads, self.wall_secs
        );
        for (i, m) in self.metrics.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            if m.stats.count() == 0 {
                // An empty accumulator has no mean/spread/extrema;
                // fabricating 0.000000 here made a metric that never
                // recorded look like one that measured exactly zero.
                out.push_str(&format!(
                    "\"{}\":{{\"count\":0,\"mean\":null,\"std_dev\":null,\"min\":null,\"max\":null}}",
                    m.name,
                ));
                continue;
            }
            out.push_str(&format!(
                "\"{}\":{{\"count\":{},\"mean\":{:.6},\"std_dev\":{:.6},\"min\":{:.6},\"max\":{:.6}}}",
                m.name,
                m.stats.count(),
                m.stats.mean(),
                m.stats.std_dev(),
                m.stats.min().expect("count > 0"),
                m.stats.max().expect("count > 0"),
            ));
        }
        out.push_str("}");
        if let Some(t) = &self.telemetry {
            out.push_str(",\"telemetry\":");
            out.push_str(&t.to_json());
        }
        out.push('}');
        out
    }
}

/// The result of [`run_sweep`]: per-job outcomes in job order plus the
/// merged report.
#[derive(Debug, Clone)]
pub struct SweepResult {
    /// One outcome per job, in job-index order, with what its observers
    /// collected.
    pub outcomes: Vec<Observed<SweepOutcome>>,
    /// Merged statistics and timing.
    pub report: RunnerReport,
}

impl SweepResult {
    /// The outcomes whose label matches `label`, in job order.
    pub fn labeled<'a>(&'a self, label: &str) -> Vec<&'a SweepOutcome> {
        self.outcomes
            .iter()
            .map(|o| &o.value)
            .filter(|o| o.label == label)
            .collect()
    }

    /// The merged Chrome trace, one `pid` per traced job named by its
    /// label ([`merged_trace_json`]). `None` when no job was traced.
    pub fn trace_json(&self) -> Option<String> {
        self.outcomes
            .iter()
            .any(|o| o.trace.is_some())
            .then(|| merged_trace_json(&self.outcomes, |_, o| o.label.clone()))
    }

    /// The merged Prometheus-style exposition ([`merged_metrics`]).
    /// `None` when the sweep ran without metrics.
    pub fn metrics_text(&self) -> Option<String> {
        merged_metrics(&self.outcomes).map(|m| m.render_prometheus())
    }
}

/// Runs a flat HBO-activation job list on `threads` workers under
/// `observe`: [`run_observed`] applied to [`run_hbo`], with each job's
/// seed from [`SweepJob::seed`] or [`job_seed`].
///
/// Per-job iteration statistics (cost, quality, normalized latency) are
/// accumulated into independent [`Running`]s inside each job and merged
/// with [`Running::merge`] in job-index order afterwards; per-job scalars
/// (best cost, iterations-to-converge) are recorded in the same order.
/// Both are therefore independent of scheduling, and the whole sweep is
/// bit-identical for every thread count and to an unobserved sweep.
pub fn run_sweep(
    label: impl Into<String>,
    jobs: Vec<SweepJob>,
    master_seed: u64,
    threads: usize,
    observe: &ObserveConfig,
) -> SweepResult {
    let seeds: Vec<u64> = jobs
        .iter()
        .enumerate()
        .map(|(i, job)| job.seed.unwrap_or_else(|| job_seed(master_seed, i as u64)))
        .collect();
    let sampled = observe.sampled(master_seed, &seeds);
    let (outcomes, mut report) =
        run_observed(label, threads, &jobs, observe, &sampled, |i, job| {
            SweepOutcome {
                job_index: i,
                label: job.label.clone(),
                seed: seeds[i],
                run: run_hbo(&job.scenario, &job.config, seeds[i]),
            }
        });

    // Per-job accumulators, merged in index order (parallel Welford).
    let mut iter_cost = Running::new();
    let mut iter_quality = Running::new();
    let mut iter_epsilon = Running::new();
    let mut best_cost = Running::new();
    let mut iters_to_converge = Running::new();
    let mut telemetry = TelemetrySummary::default();
    for o in outcomes.iter().map(|o| &o.value) {
        let mut job_cost = Running::new();
        let mut job_quality = Running::new();
        let mut job_epsilon = Running::new();
        for r in &o.run.records {
            job_cost.record(r.cost);
            job_quality.record(r.quality);
            job_epsilon.record(r.epsilon);
        }
        iter_cost.merge(&job_cost);
        iter_quality.merge(&job_quality);
        iter_epsilon.merge(&job_epsilon);
        best_cost.record(o.run.best.cost);
        iters_to_converge.record(o.run.iterations_to_converge() as f64);
        telemetry.merge(&o.run.telemetry);
    }
    let metric = |name: &str, stats: Running| MetricSummary {
        name: name.to_owned(),
        stats,
    };
    report.metrics = vec![
        metric("best_cost", best_cost),
        metric("iters_to_converge", iters_to_converge),
        metric("iter_cost", iter_cost),
        metric("iter_quality", iter_quality),
        metric("iter_epsilon", iter_epsilon),
    ];
    report.telemetry = Some(telemetry);
    SweepResult { outcomes, report }
}

/// Runs an arbitrary deterministic job list on `threads` workers and
/// times it — the generic entry point for sweeps that are not HBO
/// activations (scripted timelines, fixed-configuration measurements…).
///
/// `f` must be a pure function of `(index, item)` for the serial ≡
/// parallel guarantee to hold; results come back in input order.
pub fn run_map<T, R, F>(
    label: impl Into<String>,
    threads: usize,
    items: &[T],
    f: F,
) -> (Vec<R>, RunnerReport)
where
    T: Sync,
    R: Send,
    F: Fn(usize, &T) -> R + Sync,
{
    let start = Instant::now();
    let results = pool::map(threads, items, f);
    let report = RunnerReport {
        label: label.into(),
        wall_secs: start.elapsed().as_secs_f64(),
        jobs: results.len(),
        threads,
        metrics: Vec::new(),
        telemetry: None,
    };
    (results, report)
}

#[cfg(test)]
mod tests {
    use super::*;
    use simcore::check::{self, u64s};
    use simcore::prop_assert;
    use simcore::rand::{RngCore, SeedableRng, StdRng};

    fn quick_config() -> HboConfig {
        HboConfig {
            n_initial: 2,
            iterations: 2,
            ..HboConfig::default()
        }
    }

    fn demo_jobs() -> Vec<SweepJob> {
        let config = quick_config();
        let mut jobs = Vec::new();
        for spec in [ScenarioSpec::sc2_cf2(), ScenarioSpec::sc2_cf1()] {
            for replicate in 0..2 {
                jobs.push(SweepJob::derived(
                    format!("{}/r{replicate}", spec.name),
                    spec.clone(),
                    config.clone(),
                ));
            }
        }
        jobs
    }

    fn values(r: &SweepResult) -> impl Iterator<Item = &SweepOutcome> {
        r.outcomes.iter().map(|o| &o.value)
    }

    fn argv(args: &[&str]) -> Vec<String> {
        args.iter().map(|a| a.to_string()).collect()
    }

    #[test]
    fn flag_values_parse_strictly() {
        let a = argv(&["--smoke", "--seed", "7", "--trace", "t.json"]);
        assert_eq!(flag_value::<u64>(&a, "--seed"), Ok(Some(7)));
        assert_eq!(
            flag_value::<String>(&a, "--trace"),
            Ok(Some("t.json".to_string()))
        );
        assert_eq!(flag_value::<u64>(&a, "--metrics"), Ok(None));
        let err = flag_value::<u64>(&argv(&["--seed", "abc"]), "--seed").unwrap_err();
        assert!(err.starts_with("--seed: invalid value \"abc\""), "{err}");
        assert_eq!(
            flag_value::<u64>(&argv(&["--smoke", "--seed"]), "--seed"),
            Err("--seed: missing value".to_string())
        );
    }

    #[test]
    fn thread_counts_come_from_the_flag_then_the_variable() {
        assert_eq!(threads(&argv(&["--threads", "3"]), Some("5")), Ok(3));
        assert_eq!(threads(&argv(&[]), Some(" 5 ")), Ok(5));
        assert_eq!(threads(&argv(&[]), None), Ok(pool::available_threads()));
    }

    #[test]
    fn zero_or_malformed_thread_counts_name_the_flag_or_the_variable() {
        for (args, env, name, value) in [
            (&["--threads", "0"][..], None, "--threads", "0"),
            (&["--threads", "x"][..], Some("2"), "--threads", "x"),
            (&[][..], Some("0"), THREADS_ENV, "0"),
            (&[][..], Some("abc"), THREADS_ENV, "abc"),
            (&[][..], Some(""), THREADS_ENV, ""),
        ] {
            let err = threads(&argv(args), env).unwrap_err();
            assert!(err.starts_with(name), "{err}");
            assert!(err.contains(&format!("{value:?}")), "{err}");
        }
        assert_eq!(
            threads(&argv(&["--threads"]), None),
            Err("--threads: missing value".to_string())
        );
    }

    #[test]
    fn four_thread_sweep_is_bit_identical_to_one_thread() {
        let serial = run_sweep("det", demo_jobs(), 42, 1, &ObserveConfig::default());
        let parallel = run_sweep("det", demo_jobs(), 42, 4, &ObserveConfig::default());
        assert_eq!(serial.outcomes.len(), parallel.outcomes.len());
        for (a, b) in values(&serial).zip(values(&parallel)) {
            assert_eq!(a.job_index, b.job_index);
            assert_eq!(a.seed, b.seed);
            assert_eq!(a.run.best.point, b.run.best.point);
            assert_eq!(a.run.best.cost, b.run.best.cost);
            assert_eq!(a.run.best_cost_trace, b.run.best_cost_trace);
        }
        // Merged metrics are bit-identical `Running`s, not just close.
        assert_eq!(serial.report.metrics, parallel.report.metrics);
    }

    #[test]
    fn explicit_seeds_override_derivation() {
        let mut jobs = demo_jobs();
        jobs[1].seed = Some(777);
        let result = run_sweep("seeded", jobs, 9, 2, &ObserveConfig::default());
        assert_eq!(result.outcomes[0].value.seed, job_seed(9, 0));
        assert_eq!(result.outcomes[1].value.seed, 777);
    }

    #[test]
    fn report_json_says_null_for_metrics_that_never_recorded() {
        // Regression: an empty metric used to render as
        // `"mean":0.000000,...` — indistinguishable from a metric that
        // measured exactly zero. It must render null for mean/spread/extrema.
        let mut recorded = Running::new();
        recorded.record(2.0);
        recorded.record(4.0);
        let report = RunnerReport {
            label: "nulls".to_owned(),
            jobs: 0,
            threads: 1,
            wall_secs: 0.0,
            metrics: vec![
                MetricSummary {
                    name: "empty".to_owned(),
                    stats: Running::new(),
                },
                MetricSummary {
                    name: "seen".to_owned(),
                    stats: recorded,
                },
            ],
            telemetry: None,
        };
        let json = report.to_json();
        assert!(
            json.contains(
                "\"empty\":{\"count\":0,\"mean\":null,\"std_dev\":null,\"min\":null,\"max\":null}"
            ),
            "empty metric not rendered as null: {json}"
        );
        assert!(
            json.contains("\"seen\":{\"count\":2,\"mean\":3.000000"),
            "non-empty metric changed shape: {json}"
        );
    }

    #[test]
    fn job_seed_streams_have_distinct_first_draws() {
        // Property: for any master seed, the 256 first job streams all
        // draw distinct first values — no pair of jobs shares a stream.
        check::check("job_seed_streams_distinct", u64s(..), |&master| {
            let mut seen = std::collections::HashSet::new();
            for job_index in 0..256u64 {
                let first = StdRng::seed_from_u64(job_seed(master, job_index)).next_u64();
                prop_assert!(
                    seen.insert(first),
                    "jobs of master seed {master} collide at index {job_index}"
                );
            }
            Ok(())
        });
    }

    #[test]
    fn run_map_keeps_input_order_and_counts_jobs() {
        let items: Vec<u64> = (0..17).collect();
        let (out, report) = run_map("map", 4, &items, |i, &x| x + i as u64);
        assert_eq!(out, items.iter().map(|&x| x * 2).collect::<Vec<_>>());
        assert_eq!(report.jobs, 17);
        assert_eq!(report.threads, 4);
    }

    #[test]
    fn report_renders_one_json_line() {
        let result = run_sweep("json", demo_jobs(), 1, 2, &ObserveConfig::default());
        let line = result.report.to_json();
        assert!(line.starts_with("{\"runner\":\"json\",\"jobs\":4,\"threads\":2,"));
        assert!(line.contains("\"best_cost\":{\"count\":4,"));
        assert!(!line.contains('\n'));
    }

    #[test]
    fn observed_sweep_is_bit_identical_across_threads_and_to_unobserved() {
        let observe = ObserveConfig {
            traced: true,
            trace_sample: Some(2),
            metrics: true,
        };
        let serial = run_sweep("obs", demo_jobs(), 42, 1, &observe);
        let parallel = run_sweep("obs", demo_jobs(), 42, 4, &observe);
        let plain = run_sweep("obs", demo_jobs(), 42, 1, &ObserveConfig::default());

        // Exactly k jobs keep Chrome detail; the same jobs either way.
        let traced_jobs = |r: &SweepResult| -> Vec<usize> {
            r.outcomes
                .iter()
                .filter(|o| o.trace.is_some())
                .map(|o| o.value.job_index)
                .collect()
        };
        assert_eq!(traced_jobs(&serial).len(), 2);
        assert_eq!(traced_jobs(&serial), traced_jobs(&parallel));

        // Every job feeds the aggregator, and the merged exposition is
        // byte-identical across thread counts.
        assert!(serial.outcomes.iter().all(|o| o.metrics.is_some()));
        let text = serial.metrics_text().expect("metrics collected");
        assert_eq!(Some(text.clone()), parallel.metrics_text());
        assert!(text.contains("# TYPE mar_span_count counter"));

        // Observation never perturbs the simulations.
        for (a, b) in values(&serial).zip(values(&plain)) {
            assert_eq!(a.seed, b.seed);
            assert_eq!(a.run.best.cost, b.run.best.cost);
            assert_eq!(a.run.best_cost_trace, b.run.best_cost_trace);
        }
        assert_eq!(serial.report.metrics, plain.report.metrics);
    }

    #[test]
    fn untraced_observed_sweep_collects_no_buffers() {
        let result = run_sweep("off", demo_jobs(), 3, 2, &ObserveConfig::default());
        assert!(result.outcomes.iter().all(|o| o.trace.is_none()));
        assert!(result.outcomes.iter().all(|o| o.metrics.is_none()));
        assert!(result.metrics_text().is_none());
        assert!(result.trace_json().is_none());
    }

    #[test]
    fn labeled_filters_outcomes() {
        let result = run_sweep("lbl", demo_jobs(), 5, 2, &ObserveConfig::default());
        assert_eq!(result.labeled("SC2-CF2/r0").len(), 1);
        assert_eq!(result.labeled("nope").len(), 0);
    }
}
