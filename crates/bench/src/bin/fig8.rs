//! Regenerates **Figure 8**: the event-based activation policy (a) against
//! a periodic one (b).
//!
//! Paper protocol (Section V-D): ten virtual objects are placed between
//! t = 0 and t = 255 s, the user steps back around t = 320 s, and the
//! reward `B_t` is monitored every 2 s with trigger bounds +5 % / −10 %.
//! The event-based policy activates for the first placement, for the
//! placements that actually hurt performance (the heavy late objects), and
//! for the distance change — while the periodic policy fires on a timer
//! regardless of need.
//!
//! The two policy studies run concurrently on the deterministic parallel
//! runner (`--threads N` / `HBO_THREADS`).

use hbo_bench::{harness, seeds};
use hbo_core::HboConfig;
use marsim::runner;
use marsim::timeline::{run_activation_study, ActivationTrace, PolicyKind};
use marsim::ScenarioSpec;

/// The Fig. 8 scenario: ten objects placed over the run, with the CF1
/// taskset. The first eight are light props whose additions barely move
/// the render load — "not all object additions significantly impact AI
/// task performance" — while the ninth (a 120 k bust) and the paper's
/// 150 k-triangle tenth push the GPU into the contended regime and should
/// trigger activations.
fn fig8_spec() -> ScenarioSpec {
    let mut spec = ScenarioSpec::sc1_cf1();
    let prop = arscene::scenarios::CatalogEntry {
        name: "prop",
        count: 8,
        triangles: 8_000,
        params: arscene::QualityParams::new(1.00, -2.20, 1.20, 1.0),
        distance_factor: 1.2,
    };
    let bust = arscene::scenarios::CatalogEntry {
        name: "bust",
        count: 1,
        triangles: 200_000,
        params: arscene::QualityParams::new(0.87, -2.18, 1.31, 1.4),
        distance_factor: 0.9,
    };
    // The paper's tenth object carries 150 k triangles; our simulated GPU
    // sits at a higher congestion knee, so the equivalent "heavy late
    // arrival" needs ~350 k to produce the same relative pressure.
    let statue = arscene::scenarios::CatalogEntry {
        name: "statue",
        count: 1,
        triangles: 350_000,
        params: arscene::QualityParams::new(1.09, -2.83, 1.74, 1.0),
        distance_factor: 0.8,
    };
    // MarApp places pending objects in reverse order (it pops from the
    // back), so list the late heavy arrivals first.
    spec.objects = vec![statue, bust, prop];
    spec.name = "Fig8".to_owned();
    spec
}

fn print_trace(title: &str, trace: &ActivationTrace, total_secs: f64) {
    println!("== {title} ==");
    println!(
        "   placements (O) at: {}",
        trace
            .placements
            .iter()
            .map(|t| format!("{t:.0}"))
            .collect::<Vec<_>>()
            .join(", ")
    );
    for t in &trace.distance_changes {
        println!("   distance change at: {t:.0}s");
    }
    println!(
        "   activations ({}) at: {}",
        trace.activations.len(),
        trace
            .activations
            .iter()
            .map(|(t, reason)| format!("{t:.0}({reason:?})"))
            .collect::<Vec<_>>()
            .join(", ")
    );
    // Reward timeline, bucketed for readability.
    let mut line = String::from("   reward: ");
    for s in trace.samples.iter().step_by(4) {
        line += &format!(
            "{}{:+.2} ",
            if s.during_activation { "*" } else { "" },
            s.reward
        );
    }
    println!("{line}");
    let explore: usize = trace.samples.iter().filter(|s| s.during_activation).count();
    println!(
        "   {:.0}% of samples spent exploring (over {total_secs:.0}s)\n",
        100.0 * explore as f64 / trace.samples.len() as f64
    );
}

fn main() {
    let spec = fig8_spec();
    // A trimmed iteration budget keeps each activation's exploration phase
    // proportionate to the paper's timeline (their boxes span ~20-30 s).
    let config = HboConfig {
        n_initial: 3,
        iterations: 7,
        ..HboConfig::default()
    };
    // Object placements spread to t = 255 s; user steps back at t = 320 s.
    let placements: Vec<f64> = (0..10).map(|i| 3.0 + 28.0 * i as f64).collect();
    let distance_change = [(320.0, 3.0)];
    let total = 400.0;

    // Both policy studies share the same scripted timeline and seed, so
    // they are independent jobs: run them concurrently on the runner and
    // print in figure order afterwards.
    let threads = runner::threads_or_exit();
    let policies = [
        (
            "Fig. 8a — event-based activation (ours)",
            PolicyKind::EventBased,
        ),
        (
            "Fig. 8b — periodic activation (every 50 s)",
            PolicyKind::Periodic {
                interval_secs: 50.0,
            },
        ),
    ];
    let (traces, report) = runner::run_map("fig8", threads, &policies, |_, (_, policy)| {
        run_activation_study(
            &spec,
            &config,
            *policy,
            &placements,
            &distance_change,
            total,
            seeds::FIG8,
        )
    });
    for ((title, _), trace) in policies.iter().zip(&traces) {
        print_trace(title, trace, total);
    }
    let (event, periodic) = (&traces[0], &traces[1]);

    println!(
        "Paper check: the event policy activates only a handful of times (first\n\
         placement, the late heavy objects, the distance change: {} activations\n\
         measured) while the periodic policy fires {} times regardless of need\n\
         (paper: seven), wasting exploration.",
        event.activations.len(),
        periodic.activations.len()
    );
    harness::emit_runner_report(&report);
}
