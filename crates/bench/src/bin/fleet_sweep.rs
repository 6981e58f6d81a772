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
//! into a bounded aggregator ([`simcore::metrics`]); the per-cell
//! buffers merge in cell order and the Prometheus-style text exposition
//! is written to `PATH`, byte-identical for any `--threads` setting.

use edgelink::RoutePolicy;
use hbo_bench::args::SweepArgs;
use hbo_bench::harness;
use hbo_core::WarmCache;
use marsim::fleet::{run_class_plan, run_fleet_cell, FleetSpec};
use marsim::runner::{self, job_seed, MetricSummary};
use marsim::TelemetrySummary;
use simcore::rng::mix;
use simcore::stats::Running;

fn main() {
    let args = SweepArgs::from_env(&["--warm"]);
    let warm = std::env::args().any(|a| a == "--warm");

    // Fixed cluster, growing fleet: the sweep walks one deployment from
    // comfortable (~0.3× capacity) to heavily saturated, where routing
    // policy and load shedding dominate the tail.
    let (fleets, horizon): (Vec<usize>, f64) = if args.smoke {
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
            let seed_base = mix(mix(args.seed, 0x9A11_0001), epoch as u64);
            let (plans, _) = runner::run_map("fleet_plan", args.threads, &class_idxs, |_, &i| {
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
    let cell_seeds: Vec<u64> = (0..cells.len())
        .map(|i| job_seed(args.seed, i as u64))
        .collect();
    // Which cells keep full Chrome detail: all of them without
    // --trace-sample, otherwise the K with the smallest seed-derived
    // hashes — a pure function of (--seed, cell seeds), so the same
    // cells on every rerun and every --threads value.
    let observe = args.observe();
    let sampled = observe.sampled(args.seed, &cell_seeds);
    let (outcomes, mut report) = runner::run_observed(
        "fleet_sweep",
        args.threads,
        &cells,
        &observe,
        &sampled,
        |i, &(fleet, policy)| {
            let spec = FleetSpec::mar_default(fleet).with_horizon(horizon);
            run_fleet_cell(&spec, policy, cell_seeds[i])
        },
    );
    for o in &outcomes {
        println!("{}", o.value.row);
    }
    // Merge per-cell telemetry and metrics in cell order (deterministic
    // for any thread count).
    let mut telemetry = plan_telemetry;
    let mut completed = Running::new();
    let mut mean_ms = Running::new();
    for r in outcomes.iter().map(|o| &o.value) {
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

    args.write_exports(&outcomes, |i, _| {
        let (fleet, policy) = cells[i];
        format!("fleet{fleet} {}", policy.name())
    });
}
