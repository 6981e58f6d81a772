//! Deterministic tracing: record one edge-offloaded HBO activation as a
//! Chrome trace-event file and open it in Perfetto.
//!
//! ```text
//! cargo run --release --example trace_session [PATH]
//! ```
//!
//! The activation runs a four-client MAR session with **Edge** in the
//! allocation space, under a Chrome-buffering observer
//! ([`simcore::metrics::with_observers`]) that every layer of the stack
//! records into. The written file (default `trace_session.json`) loads
//! directly in <https://ui.perfetto.dev> or `chrome://tracing` and shows,
//! on separate tracks:
//!
//! * `soc:*` — per-slot job spans on each simulated processor, plus
//!   queue-depth counters;
//! * `edgelink:*` — per-flow uplink/downlink transfer spans (including
//!   retransmits) and server-lane compute spans;
//! * `hbo` — one span per control window with the chosen allocation,
//!   triangle ratio, measured quality, and normalized latency;
//! * `bo` — the optimizer's per-suggestion fit/score spans.
//!
//! All timestamps are *simulated* time, so the file is byte-identical on
//! every run — and recording it changes none of the activation's outputs.

use hbo_suite::prelude::*;
use marsim::edge::{run_edge_hbo, EdgeSpec};
use simcore::metrics::with_observers;
use simcore::trace::{chrome_trace_json, chrome_trace_stats, TraceJob};

fn main() {
    let path = std::env::args()
        .nth(1)
        .unwrap_or_else(|| "trace_session.json".to_owned());

    let spec = ScenarioSpec::sc1_cf2().with_edge(EdgeSpec::wifi(4).with_uplink_mbps(25.0));
    let config = HboConfig {
        n_initial: 3,
        iterations: 6,
        ..HboConfig::default()
    };

    let (run, buffer, _) = with_observers(true, false, |_| run_edge_hbo(&spec, &config, 2024));

    let job = TraceJob {
        name: format!("{} edge session", spec.name),
        buffer: buffer.expect("chrome buffering is on"),
    };
    let json = chrome_trace_json(&[job]);
    std::fs::write(&path, &json).expect("write trace file");

    let stats = chrome_trace_stats(&json).expect("trace must be valid Chrome JSON");
    println!(
        "best: x={:.2} alloc={} cost={:+.3}",
        run.best.point.x,
        run.best
            .point
            .allocation
            .iter()
            .map(|d| d.letter())
            .collect::<String>(),
        run.best.cost
    );
    println!(
        "\n{} events ({} spans, {} counters) written to {path}",
        stats.events, stats.spans, stats.counters
    );
    for (cat, n) in &stats.span_cats {
        println!("  {cat:<10} {n:>6} spans");
    }
    println!("\nopen in https://ui.perfetto.dev or chrome://tracing");
}
