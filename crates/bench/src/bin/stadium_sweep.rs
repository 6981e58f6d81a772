//! Stadium sweep: a growing crowd shares one contended cell until HBO
//! flips the fleet back to local inference, plus a mobility/handover
//! cell where the population walks across a two-cell deployment.
//!
//! ```text
//! stadium_sweep [--smoke] [--seed N] [--threads T] [--trace PATH]
//!               [--metrics PATH] [--trace-sample K]
//! ```
//!
//! Emits one `stadium_sweep` JSON line per cell population — HBO's final
//! allocation and reward next to the effective per-client bandwidth at
//! that population — then one `stadium_mobility` line for the walking
//! fleet, plus the runner report. Cells run on the deterministic
//! parallel runner: each cell's seed derives from `(--seed, cell
//! index)`, so the row set is bit-identical for any `--threads` setting
//! (pinned, with a golden cell, by `tests/end_to_end.rs`).
//!
//! With `--trace PATH` every population cell's HBO activation and the
//! mobility cell's cluster record span/counter traces (per-cell radio
//! utilization and active-flow counters among them), written to `PATH`
//! as Chrome trace-event JSON; the emitted rows stay byte-identical.
//! `--trace-sample K` keeps full Chrome detail for only the `K` cells
//! (population cells plus the mobility cell) with the smallest
//! seed-derived hashes; `--metrics PATH` streams every cell's spans and
//! counters into a bounded aggregator and writes the merged
//! Prometheus-style exposition, byte-identical for any `--threads`
//! setting.

use std::num::NonZeroUsize;

use edgelink::SharedCell;
use hbo_bench::args::flag_or_exit;
use hbo_bench::harness;
use hbo_core::HboConfig;
use marsim::edge::stadium_cell_traced;
use marsim::fleet::{run_mobility_cell_traced, FleetSpec};
use marsim::runner::{self, job_seed};
use marsim::{ScenarioSpec, TelemetrySummary};
use simcore::metrics::{head_sample, with_observers, MetricsBuffer};
use simcore::trace::{chrome_trace_json, TraceBuffer, TraceJob, Tracer};

fn main() {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let smoke = argv.iter().any(|a| a == "--smoke");
    let seed: u64 = flag_or_exit(&argv, "--seed").unwrap_or(2024);
    let trace_path: Option<String> = flag_or_exit(&argv, "--trace");
    let metrics_path: Option<String> = flag_or_exit(&argv, "--metrics");
    let trace_sample: Option<usize> = flag_or_exit(&argv, "--trace-sample");
    let threads = flag_or_exit::<NonZeroUsize>(&argv, "--threads")
        .map_or_else(runner::threads_from_env, NonZeroUsize::get);

    // SC1-CF2 keeps the taskset small enough for a full activation per
    // population cell; the stadium cell's capacity (80/160 Mbit/s) is
    // generous for a handful of clients and saturating for dozens.
    let base = ScenarioSpec::sc1_cf2();
    let cell = SharedCell::stadium();
    // A full activation per cell costs well under a second even at the
    // largest population, so --smoke only shrinks the population grid
    // and the mobility horizon, never the HBO budget — the smoke rows
    // show the same edge-vs-local flip the full sweep demonstrates.
    let config = HboConfig::default();
    let populations: Vec<usize> = if smoke {
        vec![2, 8]
    } else {
        vec![2, 4, 8, 16, 32]
    };

    let traced = trace_path.is_some();
    let want_metrics = metrics_path.is_some();
    // Head-sampling covers every cell of the sweep — the population
    // cells plus the trailing mobility cell — as one seed sequence, so
    // the same K cells keep Chrome detail on every rerun and thread
    // count.
    let cell_seeds: Vec<u64> = (0..=populations.len())
        .map(|i| job_seed(seed, i as u64))
        .collect();
    let sampled: Vec<bool> = match (traced, trace_sample) {
        (true, Some(k)) => head_sample(seed, &cell_seeds, k),
        (true, None) => vec![true; cell_seeds.len()],
        (false, _) => vec![false; cell_seeds.len()],
    };
    type CellOutcome = (
        String,
        TelemetrySummary,
        Option<TraceBuffer>,
        Option<MetricsBuffer>,
    );
    let (outcomes, mut report): (Vec<CellOutcome>, _) =
        runner::run_map("stadium_sweep", threads, &populations, |i, &clients| {
            let cell_seed = cell_seeds[i];
            if sampled[i] || want_metrics {
                let ((row, telemetry), trace, metrics) =
                    with_observers(sampled[i], want_metrics, |tracer| {
                        stadium_cell_traced(&base, cell, clients, &config, cell_seed, tracer)
                    });
                (row, telemetry, trace, metrics)
            } else {
                let (row, telemetry) = stadium_cell_traced(
                    &base,
                    cell,
                    clients,
                    &config,
                    cell_seed,
                    Tracer::disabled(),
                );
                (row, telemetry, None, None)
            }
        });
    for (row, _, _, _) in &outcomes {
        println!("{row}");
    }

    // The mobility/handover cell runs serially after the population
    // cells (one job; identical for any --threads setting). Its seed
    // continues the same job-seed sequence.
    let fleet = FleetSpec::mar_default(8).with_horizon(if smoke { 4.0 } else { 30.0 });
    let mobility_seed = cell_seeds[populations.len()];
    let mobility_sampled = sampled[populations.len()];
    let (mobility, mobility_trace, mobility_metrics) = if mobility_sampled || want_metrics {
        with_observers(mobility_sampled, want_metrics, |tracer| {
            run_mobility_cell_traced(&fleet, mobility_seed, tracer)
        })
    } else {
        (
            run_mobility_cell_traced(&fleet, mobility_seed, Tracer::disabled()),
            None,
            None,
        )
    };
    println!("{}", mobility.row);

    // Merge per-cell telemetry totals in cell order (deterministic for
    // any thread count) into the runner report.
    let mut telemetry = TelemetrySummary::default();
    for (_, t, _, _) in &outcomes {
        telemetry.merge(t);
    }
    telemetry.merge(&mobility.telemetry);
    report.telemetry = Some(telemetry);
    harness::emit_runner_report(&report);

    if let Some(path) = trace_path {
        let mut jobs: Vec<TraceJob> = outcomes
            .iter()
            .zip(&populations)
            .filter_map(|((_, _, trace, _), &clients)| {
                trace.as_ref().map(|buffer| TraceJob {
                    name: format!("stadium c{clients}"),
                    buffer: buffer.clone(),
                })
            })
            .collect();
        if let Some(buffer) = mobility_trace {
            jobs.push(TraceJob {
                name: "mobility".to_owned(),
                buffer,
            });
        }
        if let Err(e) = std::fs::write(&path, chrome_trace_json(&jobs)) {
            eprintln!("error: cannot write trace to {path}: {e}");
            std::process::exit(1);
        }
        eprintln!("trace written to {path}");
    }

    if let Some(path) = metrics_path {
        // Cell order, mobility last — the same merge order for any
        // --threads setting, so the exposition is byte-identical.
        let mut merged = MetricsBuffer::default();
        for (_, _, _, metrics) in &outcomes {
            if let Some(m) = metrics {
                merged.merge(m);
            }
        }
        if let Some(m) = &mobility_metrics {
            merged.merge(m);
        }
        if let Err(e) = std::fs::write(&path, merged.render_prometheus()) {
            eprintln!("error: cannot write metrics to {path}: {e}");
            std::process::exit(1);
        }
        eprintln!("metrics written to {path}");
    }
}
