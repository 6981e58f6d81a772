//! Edge-offload sweep: client count × uplink bandwidth, three systems per
//! cell (local-only, edge-only, HBO-joint with Edge in the decision
//! space).
//!
//! ```text
//! edge_offload [--smoke] [--seed N] [--threads T] [--trace PATH]
//!              [--metrics PATH] [--trace-sample K]
//! ```
//!
//! Emits one JSON line per `(cell, system)` row plus the runner report.
//! Cells run on the deterministic parallel runner: each cell's seed
//! derives from `(--seed, cell index)`, so the row set is bit-identical
//! for any `--threads` setting and across runs.
//!
//! With `--trace PATH` every cell's HBO activation records a span/counter
//! trace (one Chrome `pid` per cell, in cell order) written to `PATH` as
//! Chrome trace-event JSON; `--trace-sample K` keeps Chrome detail for
//! `K` head-sampled cells only, and `--metrics PATH` writes the merged
//! Prometheus exposition of every cell. The emitted rows stay
//! byte-identical, and the runner report gains the merged telemetry
//! totals across cells.

use hbo_bench::args::SweepArgs;
use hbo_bench::harness;
use hbo_core::HboConfig;
use marsim::edge::sweep_cell;
use marsim::runner::{self, job_seed};
use marsim::{ScenarioSpec, TelemetrySummary};

fn main() {
    let args = SweepArgs::from_env(&[]);

    // SC1 is the heavy scene (decimation matters), CF2 keeps the taskset
    // small enough that every cell runs a full activation quickly.
    let base = ScenarioSpec::sc1_cf2();
    let config = if args.smoke {
        HboConfig {
            n_initial: 2,
            iterations: 3,
            ..HboConfig::default()
        }
    } else {
        HboConfig::default()
    };
    let (client_counts, bandwidths): (Vec<usize>, Vec<f64>) = if args.smoke {
        (vec![2], vec![5.0, 50.0])
    } else {
        (vec![1, 4, 8], vec![5.0, 25.0, 100.0])
    };

    let cells: Vec<(usize, f64)> = client_counts
        .iter()
        .flat_map(|&n| bandwidths.iter().map(move |&b| (n, b)))
        .collect();
    let cell_seeds: Vec<u64> = (0..cells.len())
        .map(|i| job_seed(args.seed, i as u64))
        .collect();
    let observe = args.observe();
    let sampled = observe.sampled(args.seed, &cell_seeds);
    let (outcomes, mut report) = runner::run_observed(
        "edge_offload",
        args.threads,
        &cells,
        &observe,
        &sampled,
        |i, &(clients, mbps)| sweep_cell(&base, clients, mbps, &config, cell_seeds[i]),
    );
    for o in &outcomes {
        for row in &o.value.0 {
            println!("{row}");
        }
    }
    // Merge per-cell telemetry totals in cell order (deterministic for
    // any thread count) into the runner report.
    let mut telemetry = TelemetrySummary::default();
    for o in &outcomes {
        telemetry.merge(&o.value.1);
    }
    report.telemetry = Some(telemetry);
    harness::emit_runner_report(&report);

    args.write_exports(&outcomes, |i, _| {
        let (clients, mbps) = cells[i];
        format!("c{clients} {mbps}mbps")
    });
}
