//! Regenerates **Figure 6**: detailed analysis of one HBO activation on
//! SC1-CF1 (20 iterations, as in Section V-D):
//!
//! * **(a)** Euclidean distance between consecutive BO inputs
//!   (exploration = large jumps, exploitation = small refinements),
//! * **(b)** the best-cost trace with the selected iteration marked,
//! * **(c)** average quality and normalized latency per iteration,
//! * **(d)** per-model latency of HBO's final configuration vs SMQ's.

use hbo_bench::{harness, seeds, Series, Table};
use hbo_core::{static_best_allocation, HboConfig};
use marsim::experiment::{run_hbo, CONTROL_PERIOD_SECS};
use marsim::{runner, MarApp, ScenarioSpec};

fn main() {
    let spec = ScenarioSpec::sc1_cf1();
    let config = HboConfig::default();
    let run = run_hbo(&spec, &config, seeds::FIG6);

    // (a) consecutive-input distances.
    let mut s = Series::new("Fig. 6a — Euclidean distance between consecutive configurations");
    for (i, d) in run.consecutive_distances().iter().enumerate() {
        s.push((i + 2) as f64, *d);
    }
    print!("{}", s.render());

    // (b) best-cost trace.
    let best_iter = run
        .records
        .iter()
        .position(|r| r.cost == run.best.cost)
        .map(|i| i + 1)
        .unwrap_or(0);
    let mut s = Series::new(format!(
        "Fig. 6b — best cost per iteration (selected: iteration {best_iter})"
    ));
    for (i, c) in run.best_cost_trace.iter().enumerate() {
        s.push((i + 1) as f64, *c);
    }
    print!("{}", s.render_summary());

    // (c) quality and latency per iteration.
    let mut t = Table::new(
        "Fig. 6c — measured (Q, eps) per iteration",
        vec![
            "iter".into(),
            "x".into(),
            "quality Q".into(),
            "norm latency eps".into(),
            "cost".into(),
            "selected".into(),
        ],
    );
    for (i, r) in run.records.iter().enumerate() {
        t.row(vec![
            (i + 1).to_string(),
            format!("{:.2}", r.point.x),
            format!("{:.3}", r.quality),
            format!("{:.3}", r.epsilon),
            format!("{:+.3}", r.cost),
            if i + 1 == best_iter {
                "  <-- best".into()
            } else {
                String::new()
            },
        ]);
    }
    println!("{}", t.render());
    println!(
        "Paper reference: the selected iteration had quality 0.87 and normalized\n\
         latency 0.69; measured best: quality {:.3}, eps {:.3}.\n",
        run.best.quality, run.best.epsilon
    );

    // (d) per-model latency, HBO vs SMQ at HBO's triangle ratio. The two
    // measurement sessions are independent: run them on the parallel
    // runner (`--threads N` / `HBO_THREADS`).
    let static_alloc = static_best_allocation(&spec.profiles());
    let allocations = [run.best.point.allocation.clone(), static_alloc.clone()];
    let (measurements, report) = runner::run_map(
        "fig6",
        runner::threads_or_exit(),
        &allocations,
        |_, allocation| {
            let mut app = MarApp::new(&spec);
            app.place_all_objects();
            app.set_allocation(allocation);
            app.set_triangle_ratio(run.best.point.x);
            app.run_for_secs(1.0);
            app.measure_for_secs(2.0 * CONTROL_PERIOD_SECS)
        },
    );
    let (hbo_m, smq_m) = (&measurements[0], &measurements[1]);

    let mut t = Table::new(
        format!(
            "Fig. 6d — per-task latency (ms) at x = {:.2}: HBO vs SMQ",
            run.best.point.x
        ),
        vec![
            "task".into(),
            "HBO alloc".into(),
            "HBO ms".into(),
            "SMQ alloc".into(),
            "SMQ ms".into(),
            "improvement".into(),
        ],
    );
    for (i, name) in spec.task_names().iter().enumerate() {
        let improvement =
            100.0 * (smq_m.per_task_ms[i] - hbo_m.per_task_ms[i]) / hbo_m.per_task_ms[i];
        t.row(vec![
            name.clone(),
            run.best.point.allocation[i].to_string(),
            format!("{:.1}", hbo_m.per_task_ms[i]),
            static_alloc[i].to_string(),
            format!("{:.1}", smq_m.per_task_ms[i]),
            format!("{improvement:+.1}%"),
        ]);
    }
    println!("{}", t.render());
    println!(
        "Paper reference: relocating the GPU-affine tasks off the GPU improved the\n\
         NNAPI residents by 103% (best case, mobilenet classification) and 23.8%\n\
         (worst case, mobilenet detection)."
    );
    harness::emit_runner_report(&report);
}
