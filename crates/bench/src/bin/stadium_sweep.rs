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

use edgelink::SharedCell;
use hbo_bench::args::SweepArgs;
use hbo_bench::harness;
use hbo_core::HboConfig;
use marsim::edge::stadium_cell;
use marsim::fleet::{run_mobility_cell, FleetSpec};
use marsim::runner::{self, job_seed};
use marsim::{ScenarioSpec, TelemetrySummary};

fn main() {
    let args = SweepArgs::from_env(&[]);

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
    let populations: Vec<usize> = if args.smoke {
        vec![2, 8]
    } else {
        vec![2, 4, 8, 16, 32]
    };

    // Head-sampling covers every cell of the sweep — the population
    // cells plus the trailing mobility cell — as one seed sequence, so
    // the same K cells keep Chrome detail on every rerun and thread
    // count.
    let cell_seeds: Vec<u64> = (0..=populations.len())
        .map(|i| job_seed(args.seed, i as u64))
        .collect();
    let observe = args.observe();
    let sampled = observe.sampled(args.seed, &cell_seeds);
    let (mut outcomes, mut report) = runner::run_observed(
        "stadium_sweep",
        args.threads,
        &populations,
        &observe,
        &sampled,
        |i, &clients| stadium_cell(&base, cell, clients, &config, cell_seeds[i]),
    );
    for o in &outcomes {
        println!("{}", o.value.0);
    }

    // The mobility/handover cell runs serially after the population
    // cells (one job; identical for any --threads setting). Its seed
    // continues the same job-seed sequence, and its trace and metrics
    // merge after theirs.
    let fleet = FleetSpec::mar_default(8).with_horizon(if args.smoke { 4.0 } else { 30.0 });
    let mobility_index = populations.len();
    let mobility = observe.run(sampled[mobility_index], || {
        let r = run_mobility_cell(&fleet, cell_seeds[mobility_index]);
        (r.row, r.telemetry)
    });
    println!("{}", mobility.value.0);
    outcomes.push(mobility);

    // Merge per-cell telemetry totals in cell order (deterministic for
    // any thread count) into the runner report.
    let mut telemetry = TelemetrySummary::default();
    for o in &outcomes {
        telemetry.merge(&o.value.1);
    }
    report.telemetry = Some(telemetry);
    harness::emit_runner_report(&report);

    args.write_exports(&outcomes, |i, _| match populations.get(i) {
        Some(clients) => format!("stadium c{clients}"),
        None => "mobility".to_owned(),
    });
}
