//! Fleet-scale cluster sweep: fleet size × routing policy, one
//! heterogeneous churning population per cell served by the fixed
//! four-server cluster of `marsim::fleet::mar_cluster`.
//!
//! ```text
//! fleet_sweep [--smoke] [--warm] [--seed N] [--threads T] [--trace PATH]
//!             [--metrics PATH] [--trace-sample K]
//! ```
//!
//! Emits one JSON line per `(fleet size, policy)` cell — cluster-level
//! p50/p95/p99 latency, reject rate, per-server counters — plus the
//! runner report with merged telemetry. Cells run on the deterministic
//! parallel runner: each cell's seed derives from `(--seed, cell
//! index)`, so the row set is bit-identical for any `--threads` setting
//! (pinned, with a golden cell, by `tests/end_to_end.rs`).
//!
//! `--warm` prepends a per-class HBO planning pass per fleet-size epoch,
//! sharing one fleet-wide warm-start cache across epochs: each class
//! plans against a clone of the epoch-start cache, and the per-job
//! shadow caches merge back in class order — so the `fleet_plan` rows
//! are bit-identical for any `--threads` setting too, and epochs after
//! the first run warm. The cell rows are byte-identical with and
//! without `--warm` (cell seeds never depend on the planning pass).
//!
//! The full sweep covers hundreds of thousands of client-windows
//! (session-seconds); `--smoke` shrinks it to seconds of wall time for
//! CI.
//!
//! With `--trace PATH` every cell's cluster records per-server queue
//! depth and busy-lane counters (one Chrome `pid` per cell, in cell
//! order), written to `PATH` as Chrome trace-event JSON; the emitted
//! rows stay byte-identical. `--trace-sample K` keeps full Chrome
//! detail for only the `K` cells whose seed-derived hashes are smallest
//! (deterministic across reruns and thread counts). With `--metrics
//! PATH` every cell — sampled or not — streams its spans and counters
//! into a bounded [`simcore::metrics::AggregatingSink`]; the per-cell
//! buffers merge in cell order and the Prometheus-style text exposition
//! is written to `PATH`, byte-identical for any `--threads` setting.

use std::num::NonZeroUsize;

use edgelink::RoutePolicy;
use hbo_bench::args::flag_or_exit;
use hbo_bench::harness;
use hbo_core::WarmCache;
use marsim::fleet::{run_class_plan, run_fleet_cell_traced, FleetSpec};
use marsim::runner::{self, job_seed, MetricSummary};
use marsim::TelemetrySummary;
use simcore::metrics::{head_sample, with_observers, MetricsBuffer};
use simcore::rng::mix;
use simcore::stats::Running;
use simcore::trace::{chrome_trace_json, TraceBuffer, TraceJob, Tracer};

fn main() {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let smoke = argv.iter().any(|a| a == "--smoke");
    let warm = argv.iter().any(|a| a == "--warm");
    let seed: u64 = flag_or_exit(&argv, "--seed").unwrap_or(2024);
    let trace_path: Option<String> = flag_or_exit(&argv, "--trace");
    let metrics_path: Option<String> = flag_or_exit(&argv, "--metrics");
    let trace_sample: Option<usize> = flag_or_exit(&argv, "--trace-sample");
    let threads = flag_or_exit::<NonZeroUsize>(&argv, "--threads")
        .map_or_else(runner::threads_from_env, NonZeroUsize::get);

    // Fixed cluster, growing fleet: the sweep walks one deployment from
    // comfortable (~0.3× capacity) to heavily saturated, where routing
    // policy and load shedding dominate the tail.
    let (fleets, horizon): (Vec<usize>, f64) = if smoke {
        (vec![12], 4.0)
    } else {
        (vec![64, 256, 1024, 4096], 30.0)
    };

    // Warm-start planning pass: one HBO plan per device class per
    // fleet-size epoch, against a cache snapshot cloned at epoch start;
    // shadows merge back in class order (deterministic for any thread
    // count). Runs before the cells, whose seeds it never touches.
    let mut plan_telemetry = TelemetrySummary::default();
    if warm {
        let mut cache = WarmCache::new();
        for (epoch, &fleet) in fleets.iter().enumerate() {
            let spec = FleetSpec::mar_default(fleet).with_horizon(horizon);
            let class_idxs: Vec<usize> = (0..spec.classes.len()).collect();
            let snapshot = cache.clone();
            let seed_base = mix(mix(seed, 0x9A11_0001), epoch as u64);
            let (plans, _) = runner::run_map("fleet_plan", threads, &class_idxs, |_, &i| {
                run_class_plan(&spec, i, seed_base, &snapshot)
            });
            for p in &plans {
                println!("{}", p.row);
                plan_telemetry.merge(&p.telemetry);
                cache.merge(&p.shadow);
            }
        }
    }

    let cells: Vec<(usize, RoutePolicy)> = fleets
        .iter()
        .flat_map(|&n| RoutePolicy::ALL.iter().map(move |&p| (n, p)))
        .collect();
    let traced = trace_path.is_some();
    let want_metrics = metrics_path.is_some();
    let cell_seeds: Vec<u64> = (0..cells.len()).map(|i| job_seed(seed, i as u64)).collect();
    // Which cells keep full Chrome detail: all of them without
    // --trace-sample, otherwise the K with the smallest seed-derived
    // hashes — a pure function of (--seed, cell seeds), so the same
    // cells on every rerun and every --threads value.
    let sampled: Vec<bool> = match (traced, trace_sample) {
        (true, Some(k)) => head_sample(seed, &cell_seeds, k),
        (true, None) => vec![true; cells.len()],
        (false, _) => vec![false; cells.len()],
    };
    let (outcomes, mut report) =
        runner::run_map("fleet_sweep", threads, &cells, |i, &(fleet, policy)| {
            let spec = FleetSpec::mar_default(fleet).with_horizon(horizon);
            let cell_seed = cell_seeds[i];
            if sampled[i] || want_metrics {
                with_observers(sampled[i], want_metrics, |tracer| {
                    run_fleet_cell_traced(&spec, policy, cell_seed, tracer)
                })
            } else {
                (
                    run_fleet_cell_traced(&spec, policy, cell_seed, Tracer::disabled()),
                    None,
                    None,
                )
            }
        });
    for (r, _, _) in &outcomes {
        println!("{}", r.row);
    }
    // Merge per-cell telemetry and metrics in cell order (deterministic
    // for any thread count).
    let mut telemetry = plan_telemetry;
    let mut completed = Running::new();
    let mut mean_ms = Running::new();
    for (r, _, _) in &outcomes {
        telemetry.merge(&r.telemetry);
        completed.record(r.completed as f64);
        if let Some(m) = r.mean_ms {
            mean_ms.record(m);
        }
    }
    report.telemetry = Some(telemetry);
    report.metrics = vec![
        MetricSummary {
            name: "cell_completed".to_owned(),
            stats: completed,
        },
        // Empty (rendered null) if every cell rejected everything.
        MetricSummary {
            name: "cell_mean_ms".to_owned(),
            stats: mean_ms,
        },
    ];
    harness::emit_runner_report(&report);

    if let Some(path) = trace_path {
        let jobs: Vec<TraceJob> = outcomes
            .iter()
            .zip(&cells)
            .filter_map(|((_, trace, _), &(fleet, policy))| {
                trace.as_ref().map(|buffer: &TraceBuffer| TraceJob {
                    name: format!("fleet{fleet} {}", policy.name()),
                    buffer: buffer.clone(),
                })
            })
            .collect();
        if let Err(e) = std::fs::write(&path, chrome_trace_json(&jobs)) {
            eprintln!("error: cannot write trace to {path}: {e}");
            std::process::exit(1);
        }
        eprintln!("trace written to {path}");
    }

    if let Some(path) = metrics_path {
        // Per-cell aggregates merge in cell order, so the exposition is
        // byte-identical for any --threads setting.
        let mut merged = MetricsBuffer::default();
        for (_, _, metrics) in &outcomes {
            if let Some(m) = metrics {
                merged.merge(m);
            }
        }
        if let Err(e) = std::fs::write(&path, merged.render_prometheus()) {
            eprintln!("error: cannot write metrics to {path}: {e}");
            std::process::exit(1);
        }
        eprintln!("metrics written to {path}");
    }
}
