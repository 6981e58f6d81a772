//! Edge-offload sweep: client count × uplink bandwidth, three systems per
//! cell (local-only, edge-only, HBO-joint with Edge in the decision
//! space).
//!
//! ```text
//! edge_offload [--smoke] [--seed N] [--threads T] [--trace PATH]
//! ```
//!
//! Emits one JSON line per `(cell, system)` row plus the runner report.
//! Cells run on the deterministic parallel runner: each cell's seed
//! derives from `(--seed, cell index)`, so the row set is bit-identical
//! for any `--threads` setting and across runs.
//!
//! With `--trace PATH` every cell's HBO activation records a span/counter
//! trace (one Chrome `pid` per cell, in cell order) written to `PATH` as
//! Chrome trace-event JSON; the emitted rows stay byte-identical, and the
//! runner report gains the merged telemetry totals across cells.

use std::cell::RefCell;
use std::num::NonZeroUsize;
use std::rc::Rc;

use hbo_bench::args::flag_or_exit;
use hbo_bench::harness;
use hbo_core::HboConfig;
use marsim::edge::sweep_cell_traced;
use marsim::runner::{self, job_seed};
use marsim::{ScenarioSpec, TelemetrySummary};
use simcore::trace::{chrome_trace_json, ChromeTraceSink, TraceBuffer, TraceJob, Tracer};

fn main() {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let smoke = argv.iter().any(|a| a == "--smoke");
    let seed: u64 = flag_or_exit(&argv, "--seed").unwrap_or(2024);
    let trace_path: Option<String> = flag_or_exit(&argv, "--trace");
    let threads = flag_or_exit::<NonZeroUsize>(&argv, "--threads")
        .map_or_else(runner::threads_from_env, NonZeroUsize::get);

    // SC1 is the heavy scene (decimation matters), CF2 keeps the taskset
    // small enough that every cell runs a full activation quickly.
    let base = ScenarioSpec::sc1_cf2();
    let config = if smoke {
        HboConfig {
            n_initial: 2,
            iterations: 3,
            ..HboConfig::default()
        }
    } else {
        HboConfig::default()
    };
    let (client_counts, bandwidths): (Vec<usize>, Vec<f64>) = if smoke {
        (vec![2], vec![5.0, 50.0])
    } else {
        (vec![1, 4, 8], vec![5.0, 25.0, 100.0])
    };

    let cells: Vec<(usize, f64)> = client_counts
        .iter()
        .flat_map(|&n| bandwidths.iter().map(move |&b| (n, b)))
        .collect();
    let traced = trace_path.is_some();
    type CellOutcome = (Vec<String>, TelemetrySummary, Option<TraceBuffer>);
    let (outcomes, mut report): (Vec<CellOutcome>, _) =
        runner::run_map("edge_offload", threads, &cells, |i, &(clients, mbps)| {
            let cell_seed = job_seed(seed, i as u64);
            if traced {
                let sink = Rc::new(RefCell::new(ChromeTraceSink::new()));
                let (rows, telemetry) = sweep_cell_traced(
                    &base,
                    clients,
                    mbps,
                    &config,
                    cell_seed,
                    Tracer::with_sink(Rc::clone(&sink)),
                );
                let buffer = sink.borrow().snapshot();
                (rows, telemetry, Some(buffer))
            } else {
                let (rows, telemetry) =
                    sweep_cell_traced(&base, clients, mbps, &config, cell_seed, Tracer::disabled());
                (rows, telemetry, None)
            }
        });
    for (rows, _, _) in &outcomes {
        for row in rows {
            println!("{row}");
        }
    }
    // Merge per-cell telemetry totals in cell order (deterministic for
    // any thread count) into the runner report.
    let mut telemetry = TelemetrySummary::default();
    for (_, t, _) in &outcomes {
        telemetry.merge(t);
    }
    report.telemetry = Some(telemetry);
    harness::emit_runner_report(&report);

    if let Some(path) = trace_path {
        let jobs: Vec<TraceJob> = outcomes
            .iter()
            .zip(&cells)
            .filter_map(|((_, _, trace), &(clients, mbps))| {
                trace.as_ref().map(|buffer| TraceJob {
                    name: format!("c{clients} {mbps}mbps"),
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
}
