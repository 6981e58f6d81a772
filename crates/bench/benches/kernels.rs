//! Walltime benchmarks of the algorithmic kernels HBO runs at every
//! activation: the per-iteration costs the paper's Section IV-D complexity
//! analysis talks about (`O(K³ + MN log(MN) + L log(L))`), plus the
//! substrates (rasterizer, GMSD, decimation, discrete-event simulation).
//!
//! Runs on the in-tree `hbo_bench::harness` (median-of-N walltime, JSON
//! lines on stdout) — no external benchmarking crate.

use bayesopt::SampleSpace;
use hbo_bench::harness::Harness;
use simcore::rand::{SeedableRng, StdRng};
use std::hint::black_box;

/// Seed for every GP/BO fixture below: history growth and the timed call
/// continue one RNG stream, so the timed suggestion always sees the same
/// surrogate state.
const BO_BENCH_SEED: u64 = 7;

/// The HBO joint space: a 3-simplex resource vector `c` plus the triangle
/// ratio `x` — 4-D total. The synthetic cost reads `z[0]` and `z[3]`, so
/// it is only meaningful at exactly this dimensionality.
const HBO_SPACE_DIM: usize = 4;

fn hbo_space() -> bayesopt::space::SimplexBoxSpace {
    let space = bayesopt::space::SimplexBoxSpace::new(3, 0.2, 1.0);
    assert_eq!(
        space.dim(),
        HBO_SPACE_DIM,
        "bench fixture assumes simplex(3) + ratio = 4-D; update the synthetic cost"
    );
    space
}

/// Synthetic cost over the 4-D HBO space: favors low `c₁`, high `x`.
fn synthetic_cost(z: &[f64]) -> f64 {
    assert_eq!(z.len(), HBO_SPACE_DIM, "cost needs a 4-D HBO point");
    z[0] - z[3]
}

/// A BO optimizer grown to `k` observations, together with the RNG stream
/// it was grown under (so the timed call continues the same stream).
fn grown_bo(
    k: usize,
) -> (
    bayesopt::BoOptimizer<bayesopt::space::SimplexBoxSpace>,
    StdRng,
) {
    grown_bo_with(k, bayesopt::BoConfig::default())
}

/// [`grown_bo`] with a custom optimizer config (the warm variant).
fn grown_bo_with(
    k: usize,
    config: bayesopt::BoConfig,
) -> (
    bayesopt::BoOptimizer<bayesopt::space::SimplexBoxSpace>,
    StdRng,
) {
    let mut bo = bayesopt::BoOptimizer::new(hbo_space(), config, 5);
    let mut r = StdRng::seed_from_u64(BO_BENCH_SEED);
    for _ in 0..k {
        let z = bo.suggest(&mut r);
        let cost = synthetic_cost(&z);
        bo.observe(z, cost);
    }
    (bo, r)
}

fn bench_gp(h: &mut Harness) {
    // GP fit at the paper's dataset size (20 observations, 4-D inputs).
    let mut rng = StdRng::seed_from_u64(1);
    let space = hbo_space();
    let points: Vec<Vec<f64>> = (0..21).map(|_| space.sample(&mut rng)).collect();
    h.bench_batched(
        "gp_fit_20x4",
        || {
            let mut gp = bayesopt::GaussianProcess::new(bayesopt::Kernel::paper_default(), 1e-3);
            for (i, p) in points.iter().take(20).enumerate() {
                gp.add_observation(p.clone(), (i as f64).sin());
            }
            gp
        },
        |mut gp| gp.fit().unwrap(),
    );
    // Incremental refit: one new observation lands on an already-fitted
    // 20-point surrogate — the factor is extended, not rebuilt.
    h.bench_batched(
        "gp_fit_incremental",
        || {
            let mut gp = bayesopt::GaussianProcess::new(bayesopt::Kernel::paper_default(), 1e-3);
            for (i, p) in points.iter().take(20).enumerate() {
                gp.add_observation(p.clone(), (i as f64).sin());
            }
            gp.fit().unwrap();
            gp.add_observation(points[20].clone(), 0.25);
            gp
        },
        |mut gp| gp.fit().unwrap(),
    );
    // Batched posterior over a full acquisition candidate cloud.
    let candidates: Vec<Vec<f64>> = {
        let mut r = StdRng::seed_from_u64(2);
        (0..1280).map(|_| space.sample(&mut r)).collect()
    };
    h.bench_batched(
        "gp_predict_batch_1280",
        || {
            let mut gp = bayesopt::GaussianProcess::new(bayesopt::Kernel::paper_default(), 1e-3);
            for (i, p) in points.iter().take(20).enumerate() {
                gp.add_observation(p.clone(), (i as f64).sin());
            }
            gp.fit().unwrap();
            gp
        },
        |mut gp| black_box(gp.predict_batch(&candidates)),
    );
    // Type-II MLE grid search at K = 20: the pairwise-distance cache is
    // shared across all candidate length scales.
    h.bench_batched(
        "fit_length_scale_k20",
        || {
            let mut gp = bayesopt::GaussianProcess::new(bayesopt::Kernel::paper_default(), 1e-3);
            for (i, p) in points.iter().take(20).enumerate() {
                gp.add_observation(p.clone(), (i as f64).sin());
            }
            gp
        },
        |mut gp| gp.fit_length_scale(&[0.1, 0.3, 1.0, 3.0]).unwrap(),
    );
    // One full BO suggestion (refit + 1280 candidate generations + scores)
    // on a surrogate grown under the same seed as the timed call.
    h.bench_batched(
        "bo_suggest_k20",
        || grown_bo(20),
        |(mut bo, mut r)| black_box(bo.suggest(&mut r)),
    );
    // The warm-start steady-state suggestion: the 4×-smaller candidate
    // cloud (256 global + 64 local) a cache-seeded session runs with.
    h.bench_batched(
        "bo_suggest_warm_k20",
        || grown_bo_with(20, bayesopt::BoConfig::warm_default()),
        |(mut bo, mut r)| black_box(bo.suggest(&mut r)),
    );
}

fn bench_allocation(h: &mut Harness) {
    let profiles: Vec<hbo_core::TaskProfile> = (0..6)
        .map(|i| {
            hbo_core::TaskProfile::new(
                format!("t{i}"),
                [Some(10.0 + i as f64), Some(20.0 - i as f64), Some(15.0)],
            )
        })
        .collect();
    h.bench("allocate_tasks_m6", || {
        black_box(hbo_core::allocate_tasks(&[0.4, 0.1, 0.5], &profiles))
    });
    let scene = arscene::scenarios::sc1();
    h.bench_batched(
        "td_distribute_sc1",
        || scene.clone(),
        |mut s| s.distribute_triangles(0.72),
    );
}

fn bench_substrates(h: &mut Harness) {
    let mesh = arscene::mesh::Mesh::rock(3, 24, 24);
    h.bench("decimate_rock_1k_to_256", || black_box(mesh.decimate(256)));

    let opts = iqa::RenderOptions {
        resolution: 96,
        ..iqa::RenderOptions::default()
    };
    h.bench("raster_rock_96px", || {
        black_box(iqa::render_mesh(mesh.vertices(), mesh.triangles(), &opts))
    });

    let img_a = iqa::render_mesh(mesh.vertices(), mesh.triangles(), &opts);
    let coarse = mesh.decimate(200);
    let img_b = iqa::render_mesh(coarse.vertices(), coarse.triangles(), &opts);
    h.bench("gmsd_96px", || black_box(iqa::gmsd(&img_a, &img_b)));

    // DES throughput: one simulated second of the full SC1-CF1 app.
    // `sims_per_wall_sec` is the headline metric (simulated seconds per
    // wall-clock second).
    h.bench_sim(
        "socsim_sc1cf1_1s",
        1.0,
        || {
            let mut app = marsim::MarApp::new(&marsim::ScenarioSpec::sc1_cf1());
            app.place_all_objects();
            app
        },
        |mut app| app.run_for_secs(1.0),
    );

    // Tracing overhead on the same one-second SC1-CF1 workload, all three
    // sink configurations in one run so their deltas are same-conditions:
    //
    // * `disabled` — no tracer in scope, the same path as
    //   `socsim_sc1cf1_1s` above. Their delta is the noise floor; any
    //   eager work sneaking in ahead of an `is_enabled` check shows up
    //   here (EXPERIMENTS.md requires ≤ 2%).
    // * `null` — a sink is in scope, so every instrumentation site fires
    //   and builds its record, but `NullSink` discards it: the record-
    //   construction cost alone.
    // * `chrome` — full in-memory buffering of every span/counter.
    // * `agg` — the streaming [`simcore::metrics::AggregatingSink`]:
    //   every event folds into bounded per-series statistics instead of
    //   being buffered, so it must land well below `chrome` (EXPERIMENTS
    //   .md tracks the ratio).
    h.bench_batched(
        "trace_overhead_disabled_1s",
        || {
            let mut app = marsim::MarApp::new(&marsim::ScenarioSpec::sc1_cf1());
            app.place_all_objects();
            app
        },
        |mut app| app.run_for_secs(1.0),
    );
    h.bench_batched(
        "trace_overhead_null_1s",
        || {
            let mut app = simcore::trace::observe(
                simcore::trace::Tracer::new(simcore::trace::NullSink),
                || marsim::MarApp::new(&marsim::ScenarioSpec::sc1_cf1()),
            );
            app.place_all_objects();
            app
        },
        |mut app| app.run_for_secs(1.0),
    );
    h.bench_batched(
        "trace_overhead_chrome_1s",
        || {
            let sink = std::rc::Rc::new(std::cell::RefCell::new(
                simcore::trace::ChromeTraceSink::new(),
            ));
            let mut app = simcore::trace::observe(
                simcore::trace::Tracer::with_sink(std::rc::Rc::clone(&sink)),
                || marsim::MarApp::new(&marsim::ScenarioSpec::sc1_cf1()),
            );
            app.place_all_objects();
            (app, sink)
        },
        |(mut app, sink)| {
            app.run_for_secs(1.0);
            black_box(sink.borrow().len())
        },
    );
    h.bench_batched(
        "trace_overhead_agg_1s",
        || {
            let sink = std::rc::Rc::new(std::cell::RefCell::new(
                simcore::metrics::AggregatingSink::default(),
            ));
            let mut app = simcore::trace::observe(
                simcore::trace::Tracer::with_sink(std::rc::Rc::clone(&sink)),
                || marsim::MarApp::new(&marsim::ScenarioSpec::sc1_cf1()),
            );
            app.place_all_objects();
            (app, sink)
        },
        |(mut app, sink)| {
            app.run_for_secs(1.0);
            black_box(sink.borrow().snapshot().spans.len())
        },
    );

    // Wireless link + edge server DES: one simulated second of eight
    // closed-loop clients against a 2-lane server.
    h.bench_sim(
        "edgesim_8c_1s",
        1.0,
        || {
            let specs: Vec<edgelink::ClientSpec> = (0..8)
                .map(|i| edgelink::ClientSpec::mar_default(format!("c{i}")))
                .collect();
            let (params, sessions) = edgelink::one_server(
                edgelink::LinkParams::wifi(),
                edgelink::ServerParams::small(),
                None,
                specs,
                11,
            );
            edgelink::ClusterSim::new(params, sessions, simcore::QueueKind::Heap)
        },
        |mut sim| {
            sim.run_for_secs(1.0);
            black_box(sim.server_counters(0))
        },
    );

    // Shared-medium radio DES: one simulated second of 32 closed-loop
    // clients contending for one stadium cell. Every flow arrival/
    // departure re-solves the fair-share water-fill over the whole cell,
    // so this measures the progress-based reallocation control plane on
    // top of the one-server event loop.
    h.bench_sim(
        "mediumsim_32c_1s",
        1.0,
        || {
            let specs: Vec<edgelink::ClientSpec> = (0..32)
                .map(|i| edgelink::ClientSpec::mar_default(format!("c{i}")))
                .collect();
            let (params, sessions) = edgelink::one_server(
                edgelink::LinkParams::wifi(),
                edgelink::ServerParams::small(),
                Some(edgelink::SharedCell::stadium()),
                specs,
                11,
            );
            edgelink::ClusterSim::new(params, sessions, simcore::QueueKind::Heap)
        },
        |mut sim| {
            sim.run_for_secs(1.0);
            black_box(sim.server_counters(0))
        },
    );

    // Fleet-scale cluster DES: one simulated second of a 256-session
    // heterogeneous churning population routed across the fixed
    // four-server cluster by join-shortest-queue. Setup (population
    // synthesis + sim construction) is untimed; the routine measures
    // only the event loop.
    h.bench_sim(
        "fleet_256c_1s",
        1.0,
        || {
            let sessions = marsim::FleetSpec::mar_default(256).sessions(17);
            let params = marsim::fleet::mar_cluster(
                edgelink::LinkParams::wifi(),
                edgelink::RoutePolicy::ShortestQueue,
            );
            edgelink::ClusterSim::new(params, sessions, simcore::QueueKind::Heap)
        },
        |mut sim| {
            sim.run_for_secs(1.0);
            black_box(sim.metrics().completed())
        },
    );

    // The same 256-session cluster second with the streaming aggregator
    // attached: fleet-scale observability cost with memory bounded by
    // the aggregator's configuration, not by the event count.
    h.bench_sim(
        "fleet_256c_agg_1s",
        1.0,
        || {
            let sessions = marsim::FleetSpec::mar_default(256).sessions(17);
            let params = marsim::fleet::mar_cluster(
                edgelink::LinkParams::wifi(),
                edgelink::RoutePolicy::ShortestQueue,
            );
            let sink = std::rc::Rc::new(std::cell::RefCell::new(
                simcore::metrics::AggregatingSink::default(),
            ));
            let sim = simcore::trace::observe(
                simcore::trace::Tracer::with_sink(std::rc::Rc::clone(&sink)),
                || edgelink::ClusterSim::new(params, sessions, simcore::QueueKind::Heap),
            );
            (sim, sink)
        },
        |(mut sim, sink)| {
            sim.run_for_secs(1.0);
            black_box((
                sim.metrics().completed(),
                sink.borrow().snapshot().counters.len(),
            ))
        },
    );
}

fn main() {
    let mut gp = Harness::from_args("bayesopt");
    bench_gp(&mut gp);
    let mut core = Harness::from_args("hbo_core");
    bench_allocation(&mut core);
    let mut substrates = Harness::from_args("substrates");
    bench_substrates(&mut substrates);
}
