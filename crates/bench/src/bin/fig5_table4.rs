//! Regenerates **Figure 5 and Table IV**: HBO against the four baselines
//! (SMQ, SML, BNT, AllN) on the most challenging scenario, SC1-CF1.
//!
//! Paper headline numbers to compare against: SMQ suffers ~1.5× HBO's
//! average latency at matched quality; HBO keeps ~14.5 % more quality than
//! SML at matched latency; HBO is ~2.2× / ~3.5× faster than BNT / AllN
//! while giving up only ~13 % quality.

//! The tail-latency extension re-measures all five baselines over a 20 s
//! window; those five measurements run concurrently on the deterministic
//! parallel runner (`--threads N` / `HBO_THREADS`).

use hbo_bench::{harness, seeds, Table};
use hbo_core::{Baseline, HboConfig};
use marsim::experiment::compare_baselines;
use marsim::{runner, MarApp, ScenarioSpec};

fn main() {
    let spec = ScenarioSpec::sc1_cf1();
    let config = HboConfig::default();
    let result = compare_baselines(&spec, &config, seeds::FIG5);

    // Table IV — allocations and ratios.
    let mut t = Table::new(
        "Table IV — AI allocation and triangle ratio per system (SC1-CF1)",
        vec![
            "task".into(),
            "HBO".into(),
            "SMQ, SML".into(),
            "BNT".into(),
            "AllN".into(),
        ],
    );
    for (i, name) in spec.task_names().iter().enumerate() {
        t.row(vec![
            name.clone(),
            result.outcome(Baseline::Hbo).allocation[i].to_string(),
            result.outcome(Baseline::Smq).allocation[i].to_string(),
            result.outcome(Baseline::Bnt).allocation[i].to_string(),
            result.outcome(Baseline::AllN).allocation[i].to_string(),
        ]);
    }
    t.row(vec![
        "x (triangle ratio)".into(),
        format!("{:.2}", result.outcome(Baseline::Hbo).x),
        format!(
            "{:.2}, {:.2}",
            result.outcome(Baseline::Smq).x,
            result.outcome(Baseline::Sml).x
        ),
        "1.00".into(),
        "1.00".into(),
    ]);
    println!("{}", t.render());

    // Fig. 5b/5c — quality and latency per system.
    let mut t = Table::new(
        "Fig. 5b/5c — average quality, normalized latency, latency ratio vs HBO",
        vec![
            "system".into(),
            "x".into(),
            "avg quality Q".into(),
            "avg norm latency eps".into(),
            "latency ratio vs HBO".into(),
            "mean per-task ms".into(),
        ],
    );
    for b in Baseline::ALL {
        let o = result.outcome(b);
        let mean_ms =
            o.measurement.per_task_ms.iter().sum::<f64>() / o.measurement.per_task_ms.len() as f64;
        t.row(vec![
            b.label().to_owned(),
            format!("{:.2}", o.x),
            format!("{:.3}", o.measurement.quality),
            format!("{:.3}", o.measurement.epsilon),
            format!("{:.2}x", result.latency_ratio_vs_hbo(b)),
            format!("{mean_ms:.1}"),
        ]);
    }
    println!("{}", t.render());

    // Tail latency (not in the paper, but what a MAR user feels): p95 per
    // system, re-measured over a longer window. The five baseline
    // re-measurements are independent simulations — run them in parallel.
    let threads = runner::threads_or_exit();
    let (tails, report) = runner::run_map("fig5_table4", threads, &Baseline::ALL, |_, &b| {
        let o = result.outcome(b);
        let mut app = MarApp::new(&spec);
        app.place_all_objects();
        app.set_allocation(&o.allocation);
        if b == Baseline::Sml {
            app.set_uniform_ratio(o.x);
        } else {
            app.set_triangle_ratio(o.x);
        }
        app.run_for_secs(20.0);
        let mean_pct = |q: f64| {
            let v = app.per_task_percentile_ms(q);
            let vals: Vec<f64> = v.into_iter().flatten().collect();
            vals.iter().sum::<f64>() / vals.len().max(1) as f64
        };
        [mean_pct(0.5), mean_pct(0.95), mean_pct(0.99)]
    });
    let mut t = Table::new(
        "Extension — tail latency over a 20 s window (p95 ms, mean across tasks)",
        vec!["system".into(), "p50".into(), "p95".into(), "p99".into()],
    );
    for (b, tail) in Baseline::ALL.iter().zip(&tails) {
        t.row(vec![
            b.label().to_owned(),
            format!("{:.1}", tail[0]),
            format!("{:.1}", tail[1]),
            format!("{:.1}", tail[2]),
        ]);
    }
    println!("{}", t.render());

    // Headline comparisons (paper vs measured).
    let hbo = result.outcome(Baseline::Hbo);
    let smq = result.outcome(Baseline::Smq);
    let sml = result.outcome(Baseline::Sml);
    let bnt = result.outcome(Baseline::Bnt);
    let alln = result.outcome(Baseline::AllN);
    let ms = |o: &marsim::BaselineOutcome| {
        o.measurement.per_task_ms.iter().sum::<f64>() / o.measurement.per_task_ms.len() as f64
    };
    println!("== Headline checks (paper -> measured) ==");
    println!(
        "SMQ latency vs HBO at matched quality:   paper 1.5x  -> measured {:.2}x (ms) / {:.2}x (eps)",
        ms(smq) / ms(hbo),
        smq.measurement.epsilon / hbo.measurement.epsilon.max(1e-9)
    );
    println!(
        "HBO quality vs SML at matched latency:   paper +14.5% -> measured +{:.1}% (SML x={:.2}, eps {:.3} vs HBO {:.3})",
        100.0 * (hbo.measurement.quality - sml.measurement.quality) / sml.measurement.quality,
        sml.x,
        sml.measurement.epsilon,
        hbo.measurement.epsilon
    );
    println!(
        "BNT latency vs HBO:                      paper 2.2x  -> measured {:.2}x (ms)",
        ms(bnt) / ms(hbo)
    );
    println!(
        "AllN latency vs HBO:                     paper 3.5x  -> measured {:.2}x (ms)",
        ms(alln) / ms(hbo)
    );
    println!(
        "HBO quality sacrificed vs full quality:  paper ~13%  -> measured {:.1}%",
        100.0 * (1.0 - hbo.measurement.quality)
    );
    harness::emit_runner_report(&report);
}
